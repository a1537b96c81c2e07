#include "mitigation/rfm.h"

#include <algorithm>

namespace bh {

Rfm::Rfm(unsigned n_rh, const DramSpec &spec)
    : raaimt_(std::clamp(n_rh / 8, 4u, 128u)),
      serviceTh(std::max(2u, n_rh / 4)),
      raa(spec.org.totalBanks(), 0),
      rowCounts(spec.org.totalBanks()),
      banksPerRank(spec.org.banksPerRank()),
      rowsPerBank(spec.org.rowsPerBank)
{}

void
Rfm::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                Cycle now)
{
    (void)thread;
    (void)now;
    ++rowCounts[flat_bank][row];

    if (++raa[flat_bank] < raaimt_)
        return;
    raa[flat_bank] = 0;
    host->performRfm(flat_bank, 1.0);

    // DRAM-side service: refresh victims of every row in this bank whose
    // counter crossed the service threshold.
    auto &bank_counts = rowCounts[flat_bank];
    for (auto it = bank_counts.begin(); it != bank_counts.end();) {
        if (it->second >= serviceTh) {
            host->notifyRowProtected(flat_bank, it->first);
            it = bank_counts.erase(it);
        } else {
            ++it;
        }
    }
}

void
Rfm::onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                       unsigned sweep_rows, Cycle now)
{
    (void)now;
    // Rows refreshed by the periodic sweep restart their counters.
    unsigned base_bank = rank * banksPerRank;
    for (unsigned b = 0; b < banksPerRank; ++b) {
        auto &bank_counts = rowCounts[base_bank + b];
        for (unsigned r = 0; r < sweep_rows; ++r)
            bank_counts.erase((sweep_start + r) % rowsPerBank);
    }
}

} // namespace bh
