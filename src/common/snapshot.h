/**
 * @file
 * Binary state codec for mid-run simulation snapshots.
 *
 * StateWriter/StateReader serialize the mutable state of every simulation
 * component into a flat byte string (little-endian fixed-width integers,
 * doubles as IEEE-754 bit patterns — exact round trips, no text
 * formatting). Section tags (FNV-1a of a name) let a reader detect layout
 * drift early; every read is bounds-checked and failure is sticky, so a
 * truncated or corrupt blob reports `!ok()` instead of crashing — the
 * caller falls back to recomputing from scratch.
 *
 * Archive contract. Both classes offer the same archive members, each
 * taking a reference to the field it transfers: the writer encodes the
 * field, the reader decodes into it. A stateful class therefore writes its
 * snapshot layout once, as
 *
 *     template <class Ar, class Self>
 *     static void transfer(Ar &ar, Self &self);
 *
 * which saveState(StateWriter&) runs with `Self = const X` and
 * loadState(StateReader&) with `Self = X`, so save and load cannot
 * diverge. The member name fixes the encoding width, not the C++ type:
 * `u64(x)` writes eight bytes whatever x is, and the reader fails when
 * the decoded value does not fit x. A snapshot file is outside input:
 * transfer() validates it with `check(cond)` (a no-op on the writer) and
 * the fixed-size container forms, which fail the reader when a length
 * differs from the geometry the object was constructed with. A failed
 * reader keeps returning zeros, so code after a failed check must not
 * index with decoded values without re-checking them.
 *
 * The kLoading rule: `if constexpr (Ar::kLoading)` is for format, never
 * for field lists — a block that encodes differently than it stores (the
 * LLC's narrow/wide tag store, the controller's completion heap) or that
 * rebuilds derived state after a load. Every field is still named once.
 *
 * Hash-table state needs more care than contents alone: a resumed run
 * must be *bit-identical* to an uninterrupted one, and some consumers make
 * iteration-order-dependent decisions (MisraGries reclaims the first
 * stale slot an iteration finds, which steers which rows Graphene/AQUA
 * keep tracking). map() therefore records the bucket count and the
 * elements in iteration order, and rebuilds by rehashing to the saved
 * bucket count and inserting in *reverse* order: libstdc++ prepends a new
 * node to its bucket (and a new bucket's segment to the global element
 * list), so reverse insertion reproduces the exact iteration order — and,
 * with the bucket count pinned, the exact future rehash points.
 * test_snapshot locks this property in; if a standard library ever breaks
 * it, the round-trip tests fail loudly rather than letting resumed runs
 * drift.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bh {

/** FNV-1a over a byte string (section tags, snapshot checksums). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t seed = 14695981039346656037ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * FNV-1a folding 8 input bytes per round instead of 1 — the snapshot
 * checksum, where the input is megabytes and the byte-at-a-time loop's
 * serial multiply chain dominates save/restore. Same mixing, different
 * digest than fnv1a64 (stride is part of the function); snapshots store
 * only this variant, so the two never need to agree.
 */
inline std::uint64_t
fnv1a64Chunked(const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 14695981039346656037ull;
    while (size >= 8) {
        std::uint64_t chunk;
        std::memcpy(&chunk, p, 8);
        hash ^= chunk;
        hash *= 1099511628211ull;
        p += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

// --- Element codecs -----------------------------------------------------

/** Per-element encodings for the container members (vec, map, ...). */
struct U64Codec
{
    template <class Ar, class T>
    void operator()(Ar &ar, T &v) const { ar.u64(v); }
};
struct U32Codec
{
    template <class Ar, class T>
    void operator()(Ar &ar, T &v) const { ar.u32(v); }
};
struct BoolCodec
{
    template <class Ar, class T>
    void operator()(Ar &ar, T &v) const { ar.b(v); }
};
struct DoubleCodec
{
    template <class Ar, class T>
    void operator()(Ar &ar, T &v) const { ar.d(v); }
};
/** A nested component, through its saveState()/loadState(). */
struct StateCodec
{
    template <class Ar, class T>
    void operator()(Ar &ar, T &v) const { ar.state(v); }
};

inline constexpr U64Codec asU64{};
inline constexpr U32Codec asU32{};
inline constexpr BoolCodec asBool{};
inline constexpr DoubleCodec asDouble{};
inline constexpr StateCodec asState{};

/**
 * Container members shared by StateWriter and StateReader, written once
 * per container so both directions of each encoding sit side by side.
 */
template <class Ar>
class StateArchive
{
  public:
    /**
     * Length-prefixed sequence (vector or deque), each element through
     * @p codec. On load the length is bounded by the bytes remaining, so
     * a corrupt length cannot drive a huge allocation.
     */
    template <class Seq, class Codec>
    void vec(Seq &v, Codec codec) { sequence<false>(v, codec); }

    /**
     * vec() for a container whose length is fixed by the constructed
     * geometry: the reader fails when the stored length differs and
     * decodes in place.
     */
    template <class Seq, class Codec>
    void fixedVec(Seq &v, Codec codec) { sequence<true>(v, codec); }

    /**
     * An unordered_map: bucket count, then the elements in iteration
     * order; reloading rebuilds identical contents, bucket count AND
     * iteration order (see the file comment).
     */
    template <class Map, class KeyCodec, class ValCodec>
    void
    map(Map &m, KeyCodec key_codec, ValCodec val_codec)
    {
        Ar &ar = self();
        if constexpr (!Ar::kLoading) {
            ar.u64(m.bucket_count());
            ar.u64(m.size());
            for (const auto &kv : m) {
                key_codec(ar, kv.first);
                val_codec(ar, kv.second);
            }
        } else {
            using Key = typename Map::key_type;
            using Val = typename Map::mapped_type;
            std::uint64_t buckets = ar.u64();
            std::uint64_t n = ar.u64();
            if (!ar.ok() || n > ar.remaining() || buckets > (1ull << 40)) {
                ar.fail();
                return;
            }
            std::vector<std::pair<Key, Val>> items;
            items.reserve(n);
            for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
                Key k{};
                Val v{};
                key_codec(ar, k);
                val_codec(ar, v);
                items.emplace_back(std::move(k), std::move(v));
            }
            if (!ar.ok())
                return;
            // Rebuild into a fresh table: a never-inserted map sits on the
            // implementation's placeholder bucket count (1 on libstdc++),
            // which rehash() cannot produce — so only rehash when the
            // saved count differs from the fresh default. Saved counts of
            // ever-grown maps are rehash-stable values (primes on
            // libstdc++), so rehash() reproduces them exactly, and with
            // the count pinned the future growth schedule matches the
            // original's too.
            Map fresh;
            fresh.max_load_factor(m.max_load_factor());
            if (buckets != fresh.bucket_count())
                fresh.rehash(static_cast<std::size_t>(buckets));
            for (auto it = items.rbegin(); it != items.rend(); ++it)
                fresh.emplace(std::move(it->first), std::move(it->second));
            m = std::move(fresh);
        }
    }

    /** A u64 fixed by the constructed geometry (a count, not a field). */
    void
    expectU64(std::uint64_t expected)
    {
        std::uint64_t v = expected;
        self().u64(v);
        self().check(v == expected);
    }

    /** A presence flag that must match the constructed object graph. */
    void
    expectB(bool expected)
    {
        bool v = expected;
        self().b(v);
        self().check(v == expected);
    }

    /** A double fixed by construction (e.g. a histogram's bin width). */
    void
    expectD(double expected)
    {
        double v = expected;
        self().d(v);
        self().check(v == expected);
    }

  private:
    Ar &self() { return static_cast<Ar &>(*this); }

    template <bool kFixed, class Seq, class Codec>
    void
    sequence(Seq &v, Codec codec)
    {
        using Container = std::remove_const_t<Seq>;
        using T = typename Container::value_type;
        // A u64 (u32) vector of uint64_t (uint32_t) is its own encoding
        // on little-endian hosts, so it moves as one memcpy — for
        // megabyte-scale state (the LLC tag store) the per-element loop
        // would be the codec's dominant cost.
        constexpr bool kBulk =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
            std::is_same_v<Container, std::vector<T>> &&
            ((std::is_same_v<Codec, U64Codec> &&
              std::is_same_v<T, std::uint64_t>) ||
             (std::is_same_v<Codec, U32Codec> &&
              std::is_same_v<T, std::uint32_t>));
#else
            false;
#endif
        Ar &ar = self();
        if constexpr (!Ar::kLoading) {
            ar.u64(v.size());
            if constexpr (kBulk) {
                ar.bytes(v.data(), v.size() * sizeof(T));
            } else {
                for (const auto &e : v)
                    codec(ar, e);
            }
        } else {
            std::uint64_t n = ar.u64();
            if constexpr (kFixed) {
                if (n != v.size()) {
                    ar.fail();
                    return;
                }
            } else if (!ar.ok() ||
                       n > ar.remaining() / (kBulk ? sizeof(T) : 1)) {
                ar.fail();
                return;
            }
            if constexpr (kBulk) {
                v.resize(static_cast<std::size_t>(n));
                ar.bytes(v.data(), v.size() * sizeof(T));
            } else if constexpr (kFixed && std::is_same_v<T, bool>) {
                for (std::size_t i = 0; i < v.size(); ++i) {
                    bool e = false;
                    codec(ar, e);
                    v[i] = e;
                }
            } else if constexpr (kFixed) {
                for (auto &e : v)
                    codec(ar, e);
            } else {
                v.clear();
                if constexpr (std::is_same_v<Container, std::vector<T>>)
                    v.reserve(static_cast<std::size_t>(n));
                for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
                    T e{};
                    codec(ar, e);
                    v.push_back(std::move(e));
                }
            }
        }
    }
};

/** Append-only binary encoder. */
class StateWriter : public StateArchive<StateWriter>
{
  public:
    static constexpr bool kLoading = false;

    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    u32(std::uint32_t v)
    {
        // One append instead of four push_backs: integer encodes are the
        // codec's hot path (a snapshot is millions of them), and each
        // push_back re-checks capacity.
        char tmp[4];
        for (int i = 0; i < 4; ++i)
            tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf.append(tmp, 4);
    }

    void
    u64(std::uint64_t v)
    {
        char tmp[8];
        for (int i = 0; i < 8; ++i)
            tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf.append(tmp, 8);
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.append(s);
    }

    /** Section marker: layout drift fails fast at the first wrong tag. */
    void
    tag(const char *name)
    {
        u32(static_cast<std::uint32_t>(
            fnv1a64(name, std::strlen(name))));
    }

    /** A nested component's state, through its saveState(). */
    template <class T>
    void state(const T &x) { x.saveState(*this); }

    template <class T>
    void state(const std::unique_ptr<T> &x) { x->saveState(*this); }

    /** Load-side validation; the writer's own state needs none. */
    void check(bool) {}
    bool ok() const { return true; }

    /** Pre-size the buffer (e.g. to the previous snapshot's size). */
    void reserve(std::size_t n) { buf.reserve(n); }

    /** Append raw bytes (callers handle any endianness concerns). */
    void
    bytes(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    const std::string &data() const { return buf; }
    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

/** Bounds-checked binary decoder with a sticky failure flag. */
class StateReader : public StateArchive<StateReader>
{
  public:
    static constexpr bool kLoading = true;

    explicit StateReader(std::string data)
        : owned(std::move(data)), buf(owned)
    {
    }

    /** Tag type selecting the borrowing constructor. */
    struct Borrow
    {
    };

    /**
     * Decode @p data in place without copying it. The caller must keep
     * the referenced bytes alive and unmodified for the reader's whole
     * lifetime — the restore path uses this to avoid duplicating a
     * multi-megabyte snapshot blob per read.
     */
    StateReader(std::string_view data, Borrow) : buf(data) {}

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }
    std::size_t remaining() const { return buf.size() - pos; }
    bool atEnd() const { return ok_ && pos == buf.size(); }

    /** Fail unless @p cond holds (validation of decoded fields). */
    void
    check(bool cond)
    {
        if (!cond)
            ok_ = false;
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(buf[pos - 1]);
    }

    bool b() { return u8() != 0; }

    std::uint32_t
    u32()
    {
        // memcpy + LE fix-up compiles to a single load; assembling the
        // value byte by byte through operator[] does not, and integer
        // decodes are the restore path's hot loop.
        if (!take(4))
            return 0;
        std::uint32_t v;
        std::memcpy(&v, buf.data() + pos - 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        v = __builtin_bswap32(v);
#endif
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v;
        std::memcpy(&v, buf.data() + pos - 8, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        v = __builtin_bswap64(v);
#endif
        return v;
    }

    double
    d()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!ok_ || n > remaining()) {
            fail();
            return std::string();
        }
        std::string out(buf.substr(pos, n));
        pos += n;
        return out;
    }

    // Archive members: decode into the field, failing when the decoded
    // value does not fit the field's type.
    template <class T>
    void u8(T &v) { narrow(u8(), &v); }

    template <class T>
    void u32(T &v) { narrow(u32(), &v); }

    template <class T>
    void u64(T &v) { narrow(u64(), &v); }

    void b(bool &v) { v = b(); }
    void d(double &v) { v = d(); }
    void str(std::string &s) { s = str(); }

    /** Consume a section marker; mismatch is a sticky failure. */
    bool
    tag(const char *name)
    {
        std::uint32_t expect = static_cast<std::uint32_t>(
            fnv1a64(name, std::strlen(name)));
        if (u32() != expect)
            fail();
        return ok_;
    }

    /** A nested component's state, through its loadState(). */
    template <class T>
    void state(T &x) { x.loadState(*this); }

    template <class T>
    void state(std::unique_ptr<T> &x) { x->loadState(*this); }

    /** Copy @p n raw bytes out; false (and sticky-fail) when short. */
    bool
    bytes(void *p, std::size_t n)
    {
        if (!take(n))
            return false;
        if (n > 0) // An empty vector's data() may be null.
            std::memcpy(p, buf.data() + pos - n, n);
        return true;
    }

  private:
    template <class U, class T>
    void
    narrow(U raw, T *v)
    {
        *v = static_cast<T>(raw);
        if (static_cast<U>(*v) != raw)
            ok_ = false;
    }

    bool
    take(std::size_t n)
    {
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return false;
        }
        pos += n;
        return true;
    }

    std::string owned;     ///< Backing storage of the owning constructor.
    std::string_view buf;  ///< The bytes being decoded (may be borrowed).
    std::size_t pos = 0;
    bool ok_ = true;
};

// --- Free-function adapters ----------------------------------------------
//
// Kept for callers written against the pre-archive interface; new code
// uses the archive members.

inline bool
loadU64Vector(StateReader &r, std::vector<std::uint64_t> *v)
{
    r.vec(*v, asU64);
    return r.ok();
}

template <class Map, class SaveKey, class SaveVal>
void
saveUnorderedMap(StateWriter &w, const Map &m, SaveKey save_key,
                 SaveVal save_val)
{
    w.map(m, [&](StateWriter &a, const auto &k) { save_key(a, k); },
          [&](StateWriter &a, const auto &v) { save_val(a, v); });
}

template <class Map, class LoadKey, class LoadVal>
bool
loadUnorderedMap(StateReader &r, Map *m, LoadKey load_key, LoadVal load_val)
{
    r.map(*m, [&](StateReader &a, auto &k) { load_key(a, &k); },
          [&](StateReader &a, auto &v) { load_val(a, &v); });
    return r.ok();
}

// --- Snapshot files -----------------------------------------------------

/**
 * Write @p data to @p path atomically: a temp file in the same directory
 * is written, flushed, and renamed over the target, so a crash (or
 * SIGKILL) mid-save leaves either the previous snapshot or the new one —
 * never a torn file.
 */
bool writeFileAtomic(const std::string &path, const std::string &data,
                     std::string *error);

/** Read a whole file; false when it does not exist or cannot be read. */
bool readFile(const std::string &path, std::string *out);

} // namespace bh
