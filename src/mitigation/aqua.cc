#include "mitigation/aqua.h"

#include <algorithm>

namespace bh {

Aqua::Aqua(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 8)),
      resetPeriod(spec.timing.tREFW / 2),
      tables(spec.org.totalBanks(),
             MisraGries(MisraGries::capacityFor(resetPeriod, spec.timing.tRC,
                                                threshold)))
{}

void
Aqua::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                 Cycle now)
{
    (void)thread;
    if (now - lastReset >= resetPeriod) {
        for (MisraGries &t : tables)
            t.clear();
        lastReset = now;
    }
    MisraGries &table = tables[flat_bank];
    if (table.increment(row) >= threshold) {
        table.resetRow(row);
        ++migrations_;
        host->performMigration(flat_bank, row);
    }
}

} // namespace bh
