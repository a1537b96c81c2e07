/**
 * @file
 * Output checks, golden digests and summary statistics.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "hostbench.h"
#include "mitigation/factory.h"

namespace hb {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
recordBytes(const bh::ExperimentConfig &config,
            const bh::ExperimentResult &result)
{
    return bh::experimentResultToJson(config, result).dump();
}

bool
loadGolden(const std::string &path, Golden *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    Golden golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            return false;
        golden[line.substr(tab + 1)] =
            std::stoull(line.substr(0, tab), nullptr, 16);
    }
    *out = std::move(golden);
    return true;
}

bool
writeGolden(const std::string &path, const Golden &golden)
{
    std::ofstream out(path);
    out << "# FNV-1a 64 of experimentResultToJson(config, record).dump()"
           " at seed 1\n";
    for (const auto &[key, digest] : golden) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        out << hex << '\t' << key << '\n';
    }
    return static_cast<bool>(out);
}

PointCheck
checkPoint(const Workload &workload, const bh::ExperimentConfig &config,
           const bh::ExperimentResult *result, const Golden *golden)
{
    PointCheck c;
    auto fail = [&c](std::string why) {
        if (c.ok)
            c.why = std::move(why);
        c.ok = false;
    };
    if (result == nullptr) {
        fail("no record returned");
        return c;
    }

    std::string bytes = recordBytes(config, *result);
    c.digest = fnv1a(bytes);

    bh::JsonValue parsed;
    bh::ExperimentResult reread;
    std::string parse_error;
    if (!bh::JsonValue::parse(bytes, &parsed, &parse_error) ||
        !bh::experimentResultFromJson(parsed, &reread))
        fail("record does not parse back");
    else if (recordBytes(config, reread) != bytes)
        fail("record round trip is not byte-identical");

    if (golden != nullptr) {
        auto it = golden->find(bh::experimentKey(config));
        if (it == golden->end())
            fail("no golden digest for this key");
        else if (it->second != c.digest)
            fail("digest differs from golden");
    }

    const bh::RunResult &raw = result->raw;
    c.capped = raw.hitCycleCap;
    if (c.capped && !capExpected(config))
        fail("unexpected cycle cap");

    if (workload.liveness) {
        if (config.breakHammer && raw.suspectMarks == 0)
            fail("liveness: +BreakHammer point marked no suspect");
        if (config.mechanism != bh::MitigationType::kRega &&
            config.mechanism != bh::MitigationType::kBlockHammer &&
            config.mechanism != bh::MitigationType::kNone &&
            raw.preventiveActions == 0)
            fail("liveness: mitigation performed no preventive action");
    }
    return c;
}

double
timerOverhead()
{
    static const double overhead = [] {
        std::vector<double> batches;
        for (int b = 0; b < 9; ++b) {
            double sum = 0.0;
            for (int i = 0; i < 20000; ++i) {
                double t0 = monoNow();
                sum += monoNow() - t0;
            }
            batches.push_back(sum / 20000);
        }
        return median(batches);
    }();
    return overhead;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
tailPercentile(std::size_t samples)
{
    // percentile() interpolates at rank p/100 * (n - 1); exactly ten
    // samples lie beyond rank n - 11.
    if (samples < 21)
        return 50.0;
    double n = static_cast<double>(samples);
    return 100.0 * (n - 11.0) / (n - 1.0);
}

} // namespace hb
