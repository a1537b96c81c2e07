/**
 * @file
 * Minimal JSON document model used for stats export and golden files.
 *
 * The simulator streams experiment results to disk as JSON so figure
 * output can be diffed, post-processed, and regression-tested. The model
 * is deliberately small: an ordered object (insertion order is preserved
 * so serialization is deterministic), arrays, strings, numbers, booleans,
 * and null. `dump()` and `parse()` round-trip every value the simulator
 * produces; doubles are printed with 17 significant digits so the binary
 * value survives the trip.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bh {

/** One JSON value (null, bool, number, string, array, or object). */
class JsonValue
{
  public:
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    JsonValue() : type_(Type::kNull) {}
    JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
    JsonValue(double v) : type_(Type::kNumber), number_(v) {}
    JsonValue(int v) : type_(Type::kNumber), number_(v) {}
    JsonValue(unsigned v) : type_(Type::kNumber), number_(v) {}
    JsonValue(std::int64_t v)
        : type_(Type::kNumber), number_(static_cast<double>(v))
    {}
    JsonValue(std::uint64_t v)
        : type_(Type::kNumber), number_(static_cast<double>(v))
    {}
    JsonValue(const char *s) : type_(Type::kString), string_(s) {}
    JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}

    /** An empty array value. */
    static JsonValue array();

    /** An empty object value. */
    static JsonValue object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    bool asBool() const;
    double asDouble() const;
    const std::string &asString() const;

    // --- arrays -----------------------------------------------------
    /** Append @p value to an array (value must be an array). */
    void push(JsonValue value);

    /** Number of elements (array) or members (object). */
    std::size_t size() const;

    /** Element @p i of an array. */
    const JsonValue &at(std::size_t i) const;

    // --- objects ----------------------------------------------------
    /** Set member @p key (replaces an existing member in place). */
    void set(const std::string &key, JsonValue value);

    /** Member @p key, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key; fatal when absent. */
    const JsonValue &get(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    // --- serialization ----------------------------------------------
    /**
     * Serialize. @p indent < 0 emits compact single-line JSON; >= 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text.
     * @param[out] error Filled with a message on failure (optional).
     * @return The parsed value, or std::nullopt-like null on failure
     *         (check @p ok).
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error = nullptr);

    /** Parse @p text; fatal on malformed input (for trusted files). */
    static JsonValue parseOrDie(const std::string &text);

    bool operator==(const JsonValue &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

} // namespace bh
