#include "mitigation/graphene.h"

#include <algorithm>

namespace bh {

Graphene::Graphene(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 8)),
      resetPeriod(spec.timing.tREFW / 2),
      capacity(MisraGries::capacityFor(resetPeriod, spec.timing.tRC,
                                       threshold)),
      tables(spec.org.totalBanks(), MisraGries(capacity))
{}

void
Graphene::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
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
        host->performVictimRefresh(flat_bank, row, 1.0);
    }
}

} // namespace bh
