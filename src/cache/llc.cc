#include "cache/llc.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

Llc::Llc(const LlcConfig &config) : config_(config)
{
    std::uint64_t lines = config.sizeBytes / kCacheLineBytes;
    BH_ASSERT(lines % config.ways == 0, "LLC geometry must divide evenly");
    std::uint64_t num_sets = lines / config.ways;
    BH_ASSERT((num_sets & (num_sets - 1)) == 0,
              "LLC set count must be a power of two");
    sets.resize(num_sets);
    for (auto &set : sets)
        set.ways.resize(config.ways);
}

std::uint64_t
Llc::setIndex(Addr line_addr) const
{
    return (line_addr >> kCacheLineBits) & (sets.size() - 1);
}

Addr
Llc::tagOf(Addr line_addr) const
{
    return line_addr >> kCacheLineBits;
}

bool
Llc::access(Addr line_addr, bool is_write)
{
    Set &set = sets[setIndex(line_addr)];
    Addr tag = tagOf(line_addr);
    for (Line &line : set.ways) {
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock;
            if (is_write)
                line.dirty = true;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Llc::allocate(Addr line_addr, bool is_write, Victim *victim)
{
    Set &set = sets[setIndex(line_addr)];
    Addr tag = tagOf(line_addr);

    Line *target = nullptr;
    for (Line &line : set.ways) {
        BH_ASSERT(!(line.valid && line.tag == tag),
                  "allocate of already-present line");
        if (!line.valid) {
            target = &line;
            break;
        }
        if (target == nullptr || line.lru < target->lru)
            target = &line;
    }

    if (victim != nullptr) {
        victim->dirtyWriteback = target->valid && target->dirty;
        victim->writebackLine = target->tag << kCacheLineBits;
        if (victim->dirtyWriteback)
            ++writebacks_;
    }

    target->valid = true;
    target->tag = tag;
    target->dirty = is_write;
    target->lru = ++lruClock;
}

bool
Llc::probe(Addr line_addr) const
{
    const Set &set = sets[setIndex(line_addr)];
    Addr tag = tagOf(line_addr);
    for (const Line &line : set.ways)
        if (line.valid && line.tag == tag)
            return true;
    return false;
}

void
Llc::setDirty(Addr line_addr)
{
    Set &set = sets[setIndex(line_addr)];
    Addr tag = tagOf(line_addr);
    for (Line &line : set.ways) {
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            return;
        }
    }
}

template <class Ar, class Self>
void
Llc::transfer(Ar &ar, Self &self)
{
    ar.tag("llc");
    ar.expectU64(self.sets.size());
    // Struct-of-arrays bulk encoding: the tag store is by far the
    // largest snapshot section (one entry per cache line), so it is
    // transferred as three flat arrays instead of hundreds of thousands
    // of per-field codec calls. Flags pack valid|dirty<<1 per line. Tags
    // and LRU stamps almost always fit 32 bits (tags below a 256 GB
    // address space, LRU stamps below 4G accesses); a width byte keeps
    // the wide encoding available for the rare state that does not.
    auto each_line = [&self](auto fn) {
        std::size_t i = 0;
        for (auto &set : self.sets)
            for (auto &line : set.ways)
                fn(i++, line);
    };
    std::size_t lines = 0;
    for (const auto &set : self.sets)
        lines += set.ways.size();
    std::vector<std::uint32_t> tags32(lines), lrus32(lines);
    std::vector<std::uint64_t> tags64, lrus64, flags((lines + 31) / 32);
    bool narrow = true;
    if constexpr (!Ar::kLoading) {
        each_line([&](std::size_t i, const Line &line) {
            if (line.tag > UINT32_MAX || line.lru > UINT32_MAX)
                narrow = false;
            tags32[i] = static_cast<std::uint32_t>(line.tag);
            lrus32[i] = static_cast<std::uint32_t>(line.lru);
            std::uint64_t f = (line.valid ? 1u : 0u) | (line.dirty ? 2u : 0u);
            flags[i / 32] |= f << ((i % 32) * 2);
        });
    }
    ar.b(narrow);
    if (narrow) {
        ar.fixedVec(tags32, asU32);
        ar.fixedVec(lrus32, asU32);
    } else {
        tags64.resize(lines);
        lrus64.resize(lines);
        if constexpr (!Ar::kLoading) {
            each_line([&](std::size_t i, const Line &line) {
                tags64[i] = line.tag;
                lrus64[i] = line.lru;
            });
        }
        ar.fixedVec(tags64, asU64);
        ar.fixedVec(lrus64, asU64);
    }
    ar.fixedVec(flags, asU64);
    if constexpr (Ar::kLoading) {
        each_line([&](std::size_t i, Line &line) {
            line.tag = narrow ? tags32[i] : tags64[i];
            line.lru = narrow ? lrus32[i] : lrus64[i];
            std::uint64_t f = (flags[i / 32] >> ((i % 32) * 2)) & 3u;
            line.valid = (f & 1) != 0;
            line.dirty = (f & 2) != 0;
        });
    }
    ar.u64(self.lruClock);
    ar.u64(self.hits_);
    ar.u64(self.misses_);
    ar.u64(self.writebacks_);
}

void
Llc::saveState(StateWriter &w) const
{
    transfer(w, *this);
}

void
Llc::loadState(StateReader &r)
{
    transfer(r, *this);
}

bool
Llc::invalidate(Addr line_addr)
{
    Set &set = sets[setIndex(line_addr)];
    Addr tag = tagOf(line_addr);
    for (Line &line : set.ways) {
        if (line.valid && line.tag == tag) {
            line.valid = false;
            line.dirty = false;
            return true;
        }
    }
    return false;
}

} // namespace bh
