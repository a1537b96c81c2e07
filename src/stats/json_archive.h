/**
 * @file
 * JSON archives: one transfer body per record serves both directions.
 *
 * JsonWriter/JsonReader are the JSON counterparts of StateWriter/
 * StateReader (common/snapshot.h) and follow the same archive contract:
 * a record writes its layout once, as a static `transfer(Ar &ar, Self
 * &self)` that the encoder runs with `Self = const X` and the decoder
 * with `Self = X`. The members take a JSON member name besides the
 * field: named scalars `u64/d/b/str(name, field)`; nested
 * `object(name, fn)`, where fn() transfers the members;
 * `array(name, seq, codec)` with the snapshot element codecs (asU64,
 * asDouble), which use the unnamed scalar forms, or a lambda over an
 * element object; `optional(name, present, fn)`, an object written only
 * when `present` (the reader sets it to whether the member exists; a
 * block that exists must be complete); `derived(name, fn)`, a
 * write-only summary of fields the record already holds (a content key,
 * a percentile); and `sparse(name, vec)`, the nonzero entries of a u64
 * vector as [index, value] pairs, decoded into a vector sized before.
 *
 * The writer emits members in call order and JsonValue objects keep
 * insertion order, so the transfer body fixes the exported bytes.
 *
 * The reader fails soft: a member that is missing or has the wrong JSON
 * type, or a number that is negative, fractional, or does not fit its
 * C++ field, makes ok() false; it never asserts. Outside input (a stored
 * line, a worker frame) therefore reads as a miss, not a crash. Failure
 * is sticky and leaves fields half decoded, so callers decode into a
 * scratch value and keep it only when ok().
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/json.h"

namespace bh {

/** Builds a JSON document: an object unless a bare value is written. */
class JsonWriter
{
  public:
    static constexpr bool kLoading = false;

    void check(bool) {}

    /** The finished document. */
    JsonValue take() { return std::move(root_); }

    // The current value (an array element).
    template <class T>
    void u64(const T &v) { *cur_ = JsonValue(static_cast<std::uint64_t>(v)); }
    void d(double v) { *cur_ = JsonValue(v); }

    // Members of the current object.
    template <class T>
    void
    u64(const char *name, const T &v)
    {
        cur_->set(name, JsonValue(static_cast<std::uint64_t>(v)));
    }
    void d(const char *name, double v) { cur_->set(name, JsonValue(v)); }
    void b(const char *name, bool v) { cur_->set(name, JsonValue(v)); }
    void
    str(const char *name, const std::string &v)
    {
        cur_->set(name, JsonValue(v));
    }

    template <class Fn>
    void
    object(const char *name, Fn fn)
    {
        member(name, JsonValue::object(), fn);
    }

    template <class Seq, class Codec>
    void
    array(const char *name, const Seq &seq, Codec codec)
    {
        member(name, JsonValue::array(), [&] {
            JsonValue *arr = cur_;
            for (const auto &e : seq) {
                JsonValue elem = JsonValue::object();
                cur_ = &elem;
                codec(*this, e);
                arr->push(std::move(elem));
            }
        });
    }

    template <class Fn>
    void
    optional(const char *name, bool present, Fn fn)
    {
        if (present)
            object(name, fn);
    }

    template <class Fn>
    void derived(const char *name, Fn fn) { cur_->set(name, JsonValue(fn())); }

    void
    sparse(const char *name, const std::vector<std::uint64_t> &v)
    {
        JsonValue pairs = JsonValue::array();
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i] == 0)
                continue;
            JsonValue pair = JsonValue::array();
            pair.push(static_cast<std::uint64_t>(i));
            pair.push(v[i]);
            pairs.push(std::move(pair));
        }
        cur_->set(name, std::move(pairs));
    }

  private:
    /** Build member @p name from @p init with fn(), then attach it. */
    template <class Fn>
    void
    member(const char *name, JsonValue init, Fn fn)
    {
        JsonValue *parent = cur_;
        cur_ = &init;
        fn();
        cur_ = parent;
        parent->set(name, std::move(init));
    }

    JsonValue root_ = JsonValue::object();
    JsonValue *cur_ = &root_;
};

/** Checked decoder over a parsed document, with a sticky failure flag. */
class JsonReader
{
  public:
    static constexpr bool kLoading = true;

    /** Decode @p doc, which must outlive the reader. */
    explicit JsonReader(const JsonValue &doc) : cur_(&doc) {}

    bool ok() const { return ok_; }

    /** Fail unless @p cond holds; true while the decode is still ok. */
    bool
    check(bool cond)
    {
        ok_ = ok_ && cond;
        return ok_;
    }

    // The current value (an array element).
    /** A non-negative integer that fits @p v, whatever its width. */
    template <class T>
    void
    u64(T &v)
    {
        constexpr double kTwoTo64 = 18446744073709551616.0;
        double x = cur_->isNumber() ? cur_->asDouble() : -1.0;
        // Written so that a NaN fails too.
        if (!check(x >= 0.0 && x < kTwoTo64 && std::floor(x) == x))
            return;
        auto raw = static_cast<std::uint64_t>(x);
        auto narrowed = static_cast<T>(raw);
        if (check(static_cast<std::uint64_t>(narrowed) == raw))
            v = narrowed;
    }
    void d(double &v) { if (check(cur_->isNumber())) v = cur_->asDouble(); }
    void b(bool &v) { if (check(cur_->isBool())) v = cur_->asBool(); }
    void
    str(std::string &v)
    {
        if (check(cur_->isString()))
            v = cur_->asString();
    }

    // Members of the current object.
    template <class T>
    void u64(const char *name, T &v) { member(name, [&] { u64(v); }); }
    void d(const char *name, double &v) { member(name, [&] { d(v); }); }
    void b(const char *name, bool &v) { member(name, [&] { b(v); }); }
    void
    str(const char *name, std::string &v)
    {
        member(name, [&] { str(v); });
    }

    template <class Fn>
    void
    object(const char *name, Fn fn)
    {
        member(name, [&] {
            if (check(cur_->isObject()))
                fn();
        });
    }

    template <class Seq, class Codec>
    void
    array(const char *name, Seq &seq, Codec codec)
    {
        member(name, [&] {
            const JsonValue *arr = cur_;
            if (!check(arr->isArray()))
                return;
            seq.clear();
            seq.reserve(arr->size());
            for (std::size_t i = 0; i < arr->size() && ok_; ++i) {
                cur_ = &arr->at(i);
                typename Seq::value_type e{};
                codec(*this, e);
                seq.push_back(std::move(e));
            }
        });
    }

    template <class Fn>
    void
    optional(const char *name, bool &present, Fn fn)
    {
        present = cur_->isObject() && cur_->find(name) != nullptr;
        if (present)
            object(name, fn);
    }

    template <class Fn>
    void derived(const char *, Fn) {}

    void
    sparse(const char *name, std::vector<std::uint64_t> &v)
    {
        member(name, [&] {
            const JsonValue *pairs = cur_;
            if (!check(pairs->isArray()))
                return;
            for (std::size_t i = 0; i < pairs->size() && ok_; ++i) {
                const JsonValue &pair = pairs->at(i);
                if (!check(pair.isArray() && pair.size() == 2))
                    return;
                std::size_t index = 0;
                std::uint64_t value = 0;
                cur_ = &pair.at(0);
                u64(index);
                cur_ = &pair.at(1);
                u64(value);
                if (check(index < v.size()))
                    v[index] = value;
            }
        });
    }

  private:
    /** Run fn() on member @p name; fail when it is absent. */
    template <class Fn>
    void
    member(const char *name, Fn fn)
    {
        const JsonValue *m =
            ok_ && cur_->isObject() ? cur_->find(name) : nullptr;
        if (!check(m != nullptr))
            return;
        const JsonValue *parent = cur_;
        cur_ = m;
        fn();
        cur_ = parent;
    }

    const JsonValue *cur_;
    bool ok_ = true;
};

} // namespace bh
