/**
 * @file
 * In-memory span recorder and its Chrome Trace Event JSON writer.
 */
#include <cstdio>

#include "hostbench.h"
#include "stats/json.h"

namespace hb {

int
Tracer::begin(const char *name, const std::string &key)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.key = key;
    s.parent = open.empty() ? -1 : open.back();
    s.start = monoNow();
    spans.push_back(std::move(s));
    int id = static_cast<int>(spans.size() - 1);
    open.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    Span &s = spans[static_cast<std::size_t>(id)];
    s.end = monoNow();
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans)
        if (s.name == name && s.end >= s.start)
            sum += s.end - s.start;
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name && s.end >= s.start)
            out.push_back(s.end - s.start);
    return out;
}

std::map<std::string, double>
Tracer::totalsByKey(const std::string &name) const
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        if (s.name == name && s.end >= s.start)
            out[s.key] += s.end - s.start;
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    double origin = spans.empty() ? 0.0 : spans.front().start;
    bh::JsonValue events = bh::JsonValue::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end < s.start)
            continue;
        bh::JsonValue e = bh::JsonValue::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", 1);
        e.set("ts", (s.start - origin) * 1e6);
        e.set("dur", (s.end - s.start) * 1e6);
        bh::JsonValue args = bh::JsonValue::object();
        args.set("id", static_cast<std::uint64_t>(i));
        args.set("parent", static_cast<std::int64_t>(s.parent));
        if (!s.key.empty())
            args.set("key", s.key);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    bh::JsonValue doc = bh::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string text = doc.dump();
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace hb
