/**
 * @file
 * TWiCe: Time Window Counter based row refresh (Lee et al., ISCA'19).
 *
 * Keeps a per-bank table of activated rows with an activation count and a
 * lifetime (in refresh intervals). Rows whose count falls behind the prune
 * rate (rows that could not reach N_RH within the remaining window) are
 * periodically pruned; rows whose count reaches the trigger threshold get a
 * preventive victim refresh.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** TWiCe mitigation mechanism. */
class Twice : public IMitigation
{
  public:
    Twice(unsigned n_rh, const DramSpec &spec);

    const char *name() const override { return "TWiCe"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                           unsigned sweep_rows, Cycle now) override;

    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    unsigned triggerThreshold() const { return threshold; }

    /** Tracked entries in one bank's table (for cost comparisons). */
    std::size_t tableSize(unsigned flat_bank) const
    {
        return tables[flat_bank].size();
    }

  private:
    struct Entry
    {
        std::uint32_t acts = 0;
        std::uint32_t life = 0; ///< Age in pruning periods.
    };

    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("twice");
        ar.u64(self.refsSeen);
        ar.u64(self.windowStart);
        ar.fixedVec(self.tables, [](auto &a, auto &table) {
            a.map(table, asU32, [](auto &ea, auto &e) {
                ea.u32(e.acts);
                ea.u32(e.life);
            });
        });
    }

    const unsigned threshold;
    const unsigned refsPerPrune;
    const double pruneRate; ///< Minimum ACTs per period to stay tracked.
    unsigned refsSeen = 0;
    const Cycle windowLength;
    Cycle windowStart = 0;
    std::vector<std::unordered_map<std::uint32_t, Entry>> tables;
};

} // namespace bh
