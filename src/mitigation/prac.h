/**
 * @file
 * PRAC: Per Row Activation Counting (JESD79-5c, April 2024).
 *
 * The DRAM chip maintains an exact activation counter per row, updated
 * during precharge (which lengthens the row cycle — see pracApplyTiming).
 * When a row's counter crosses the alert threshold, the chip asserts
 * alert_n; the controller then performs the Alert Back-Off (ABO) protocol,
 * issuing a predetermined number of RFM commands during which the chip
 * refreshes the offending row's victims and resets its counter.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Apply PRAC's counter-update timing cost (longer precharge) to @p spec. */
void pracApplyTiming(DramSpec *spec);

/** PRAC mitigation (DRAM-side counters + controller ABO protocol). */
class Prac : public IMitigation
{
  public:
    /**
     * @param abo_rfms RFM commands per alert back-off (JEDEC: 4).
     */
    Prac(unsigned n_rh, const DramSpec &spec, unsigned abo_rfms = 4);

    const char *name() const override { return "PRAC"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                           unsigned sweep_rows, Cycle now) override;

    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    unsigned alertThreshold() const { return alertTh; }
    std::uint64_t alerts() const { return alerts_; }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("prac");
        ar.u64(self.alerts_);
        ar.fixedVec(self.rowCounts,
                    [](auto &a, auto &counts) { a.map(counts, asU32, asU32); });
    }

    const unsigned alertTh;
    const unsigned aboRfms;
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> rowCounts;
    const unsigned banksPerRank;
    const unsigned rowsPerBank;
    std::uint64_t alerts_ = 0;
};

} // namespace bh
