/**
 * @file
 * Misra-Gries frequent-element tracker (Misra & Gries, 1982), the counter
 * core of Graphene and AQUA.
 *
 * Uses the standard global-offset formulation of "decrement all": an entry's
 * effective count is `weight - offset`; entries whose weight falls to the
 * offset are stale and their slots are reclaimed lazily with a rotating scan
 * cursor, giving amortized O(1) updates while preserving exact Misra-Gries
 * semantics (a new element is only admitted when some counter has reached
 * zero).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/log.h"
#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** Misra-Gries summary over row identifiers. */
class MisraGries
{
  public:
    /**
     * Counters a bank needs so every row that can reach @p threshold
     * activations within @p period (at one ACT per @p t_rc) is tracked,
     * clamped to [64, 262144].
     */
    static unsigned
    capacityFor(Cycle period, Cycle t_rc, unsigned threshold)
    {
        double max_acts =
            static_cast<double>(period) / static_cast<double>(t_rc);
        auto cap = static_cast<unsigned>(max_acts / threshold) + 1;
        return std::clamp(cap, 64u, 262144u);
    }

    explicit MisraGries(unsigned capacity) : capacity_(capacity)
    {
        BH_ASSERT(capacity > 0, "Misra-Gries needs at least one counter");
        table.reserve(capacity * 2);
    }

    /**
     * Record one occurrence of @p row.
     * @return The row's effective counter after the update (0 if the row
     *         could not be admitted, i.e., all counters were decremented).
     */
    std::uint64_t
    increment(std::uint64_t row)
    {
        auto it = table.find(row);
        if (it != table.end()) {
            if (it->second <= offset) {
                it->second = offset + 1; // Stale entry: effectively new.
            } else {
                ++it->second;
            }
            return it->second - offset;
        }
        if (table.size() < capacity_) {
            table.emplace(row, offset + 1);
            return 1;
        }
        // Try to reclaim one stale slot.
        if (reclaimOne()) {
            table.emplace(row, offset + 1);
            return 1;
        }
        // Classic Misra-Gries: decrement everything, do not admit.
        ++offset;
        return 0;
    }

    /** Effective counter of @p row (0 if untracked or stale). */
    std::uint64_t
    estimate(std::uint64_t row) const
    {
        auto it = table.find(row);
        if (it == table.end() || it->second <= offset)
            return 0;
        return it->second - offset;
    }

    /** Reset @p row's counter to zero, keeping it tracked. */
    void
    resetRow(std::uint64_t row)
    {
        auto it = table.find(row);
        if (it != table.end())
            it->second = offset;
    }

    /** Drop all state (periodic table reset). */
    void
    clear()
    {
        table.clear();
        offset = 0;
    }

    std::size_t trackedRows() const { return table.size(); }
    unsigned capacity() const { return capacity_; }

    /**
     * Iteration order is part of the state here: reclaimOne() erases the
     * first stale entry an iteration finds, so the table's bucket
     * structure must survive the round trip (map() guarantees that).
     */
    void saveState(StateWriter &w) const { transfer(w, *this); }

    /** Restore saveState() output into a same-capacity summary. */
    void loadState(StateReader &r) { transfer(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("misra_gries");
        ar.u64(self.offset);
        ar.map(self.table, asU64, asU64);
    }

    /** Erase one stale entry if any exists (amortized by full scan). */
    bool
    reclaimOne()
    {
        for (auto it = table.begin(); it != table.end(); ++it) {
            if (it->second <= offset) {
                table.erase(it);
                return true;
            }
        }
        return false;
    }

    const unsigned capacity_;
    std::uint64_t offset = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
};

} // namespace bh
