#include "stats/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace bh {

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
}

bool
JsonValue::asBool() const
{
    BH_ASSERT(isBool(), "JsonValue: not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    BH_ASSERT(isNumber(), "JsonValue: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    BH_ASSERT(isString(), "JsonValue: not a string");
    return string_;
}

void
JsonValue::push(JsonValue value)
{
    BH_ASSERT(isArray(), "JsonValue: push on non-array");
    array_.push_back(std::move(value));
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return array_.size();
    if (isObject())
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    BH_ASSERT(isArray() && i < array_.size(), "JsonValue: bad index");
    return array_[i];
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    BH_ASSERT(isObject(), "JsonValue: set on non-object");
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    object_.emplace_back(key, std::move(value));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &member : object_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    const JsonValue *v = find(key);
    BH_ASSERT(v != nullptr, "JsonValue: missing object member");
    return *v;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    BH_ASSERT(isObject(), "JsonValue: members of non-object");
    return object_;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::kNull: return true;
      case Type::kBool: return bool_ == other.bool_;
      case Type::kNumber: return number_ == other.number_;
      case Type::kString: return string_ == other.string_;
      case Type::kArray: return array_ == other.array_;
      case Type::kObject: return object_ == other.object_;
    }
    return false;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    // JSON has no inf/nan; emit null so the document stays parseable by
    // any consumer (a throttled-to-zero IPC can make a slowdown inf).
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Integral values within the exactly-representable range print as
    // integers (counter fields stay readable); everything else uses 17
    // significant digits so parse(dump(x)) == x bit-for-bit.
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
appendIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

/** Recursive-descent JSON parser over a raw character range. */
class Parser
{
  public:
    Parser(const char *p, const char *end) : p(p), end(end) {}

    bool
    parse(JsonValue *out, std::string *error)
    {
        bool ok = parseValue(out) && (skipWs(), p == end);
        if (!ok && error)
            *error = err.empty() ? "trailing garbage" : err;
        return ok;
    }

  private:
    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    fail(const char *msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    bool
    literal(const char *word)
    {
        const char *q = p;
        while (*word) {
            if (q >= end || *q != *word)
                return false;
            ++q;
            ++word;
        }
        p = q;
        return true;
    }

    bool
    parseValue(JsonValue *out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            *out = JsonValue();
            return true;
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            *out = JsonValue(true);
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            *out = JsonValue(false);
            return true;
          case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = JsonValue(std::move(s));
            return true;
          }
          case '[': return parseArray(out);
          case '{': return parseObject(out);
          default: return parseNumber(out);
        }
    }

    bool
    parseString(std::string *out)
    {
        ++p; // opening quote
        out->clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("bad escape");
                switch (*p) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'n': *out += '\n'; break;
                  case 'r': *out += '\r'; break;
                  case 't': *out += '\t'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char c = p[i];
                        code <<= 4;
                        if (c >= '0' && c <= '9')
                            code |= static_cast<unsigned>(c - '0');
                        else if (c >= 'a' && c <= 'f')
                            code |= static_cast<unsigned>(c - 'a' + 10);
                        else if (c >= 'A' && c <= 'F')
                            code |= static_cast<unsigned>(c - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // The simulator only emits ASCII control escapes;
                    // decode BMP code points as UTF-8 for completeness.
                    if (code < 0x80) {
                        *out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        *out += static_cast<char>(0xC0 | (code >> 6));
                        *out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        *out += static_cast<char>(0xE0 | (code >> 12));
                        *out += static_cast<char>(0x80 |
                                                  ((code >> 6) & 0x3F));
                        *out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    p += 4;
                    break;
                  }
                  default: return fail("bad escape");
                }
                ++p;
            } else {
                *out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(JsonValue *out)
    {
        char *num_end = nullptr;
        double v = std::strtod(p, &num_end);
        if (num_end == p || num_end > end)
            return fail("bad number");
        p = num_end;
        *out = JsonValue(v);
        return true;
    }

    bool
    parseArray(JsonValue *out)
    {
        ++p; // '['
        *out = JsonValue::array();
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(&element))
                return false;
            out->push(std::move(element));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        ++p; // '{'
        *out = JsonValue::object();
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        while (true) {
            skipWs();
            if (p >= end || *p != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (p >= end || *p != ':')
                return fail("expected ':'");
            ++p;
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->set(key, std::move(value));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const char *p;
    const char *end;
    std::string err;
};

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::kNull:
        out += "null";
        return;
      case Type::kBool:
        out += bool_ ? "true" : "false";
        return;
      case Type::kNumber:
        appendNumber(out, number_);
        return;
      case Type::kString:
        appendEscaped(out, string_);
        return;
      case Type::kArray: {
        if (array_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            if (indent >= 0)
                appendIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendIndent(out, indent, depth);
        out += ']';
        return;
      }
      case Type::kObject: {
        if (object_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &member : object_) {
            if (!first)
                out += ',';
            first = false;
            if (indent >= 0)
                appendIndent(out, indent, depth + 1);
            appendEscaped(out, member.first);
            out += indent >= 0 ? ": " : ":";
            member.second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendIndent(out, indent, depth);
        out += '}';
        return;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
JsonValue::parse(const std::string &text, JsonValue *out,
                 std::string *error)
{
    Parser parser(text.data(), text.data() + text.size());
    return parser.parse(out, error);
}

JsonValue
JsonValue::parseOrDie(const std::string &text)
{
    JsonValue out;
    std::string error;
    if (!parse(text, &out, &error)) {
        std::fprintf(stderr, "json parse error: %s\n", error.c_str());
        BH_FATAL("malformed JSON input");
    }
    return out;
}

} // namespace bh
