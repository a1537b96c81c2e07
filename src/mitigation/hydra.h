/**
 * @file
 * Hydra: hybrid group/per-row tracking (Qureshi et al., ISCA'22).
 *
 * A small on-chip Group Count Table (GCT) aggregates activations over row
 * groups; when a group's count crosses the group threshold, tracking for
 * that group switches to per-row counters stored in DRAM (the Row Count
 * Table, RCT), conservatively initialized to the group count. A Row Count
 * Cache (RCC) in the controller caches RCT entries; an RCC miss costs a
 * DRAM access — one of Hydra's RowHammer-preventive actions the paper's
 * score attribution counts (§4.1), alongside the preventive refreshes
 * issued when a per-row counter reaches the row threshold.
 */
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Hydra mitigation mechanism. */
class Hydra : public IMitigation
{
  public:
    Hydra(unsigned n_rh, const DramSpec &spec, unsigned rows_per_group = 128,
          unsigned rcc_entries = 4096);

    const char *name() const override { return "Hydra"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    unsigned rowThreshold() const { return rowTh; }
    unsigned groupThreshold() const { return groupTh; }
    std::uint64_t rccMisses() const { return rccMisses_; }

  private:
    /** Touch the RCC; on miss, charge the DRAM-side RCT access. */
    void rccTouch(std::uint64_t row_key, unsigned flat_bank);

    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("hydra");
        ar.u64(self.windowStart);
        ar.u64(self.rccMisses_);
        ar.fixedVec(self.gct,
                    [](auto &a, auto &bank) { a.fixedVec(bank, asU32); });
        ar.map(self.rct, asU64, asU32);
        // The RCC is an LRU list plus a key->iterator index; the list
        // order IS the replacement state, so it serializes front to back
        // and the index is rebuilt on load.
        ar.vec(self.rccLru, asU64);
        if constexpr (Ar::kLoading) {
            self.rccIndex.clear();
            for (auto it = self.rccLru.begin(); it != self.rccLru.end();
                 ++it)
                self.rccIndex[*it] = it;
            ar.check(self.rccIndex.size() == self.rccLru.size() &&
                     self.rccLru.size() <= self.rccCapacity);
        }
    }

    const unsigned rowTh;
    const unsigned groupTh;
    const unsigned rowsPerGroup;
    const unsigned rccCapacity;
    const Cycle rctAccessLatency;
    const Cycle windowLength;
    Cycle windowStart = 0;

    /** GCT: per-bank vector of group counters. */
    std::vector<std::vector<std::uint32_t>> gct;
    /** RCT: per-row counters for escalated groups (DRAM-resident). */
    std::unordered_map<std::uint64_t, std::uint32_t> rct;
    /** RCC: LRU cache over RCT keys. */
    std::list<std::uint64_t> rccLru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        rccIndex;

    std::uint64_t rccMisses_ = 0;
};

} // namespace bh
