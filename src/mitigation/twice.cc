#include "mitigation/twice.h"

#include <algorithm>

namespace bh {

Twice::Twice(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 4)),
      // Pruning happens every 16 REF intervals; the prune rate is the pace
      // a row must sustain to ever reach the trigger threshold in a window.
      refsPerPrune(16),
      pruneRate(static_cast<double>(threshold) /
                (static_cast<double>(spec.timing.tREFW) /
                 (static_cast<double>(spec.timing.tREFI) * refsPerPrune))),
      windowLength(spec.timing.tREFW / 2),
      tables(spec.org.totalBanks())
{}

void
Twice::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                  Cycle now)
{
    (void)thread;
    if (now - windowStart >= windowLength) {
        for (auto &t : tables)
            t.clear();
        windowStart = now;
    }
    Entry &e = tables[flat_bank][row];
    if (++e.acts >= threshold) {
        e.acts = 0;
        host->performVictimRefresh(flat_bank, row, 1.0);
    }
}

void
Twice::onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                         unsigned sweep_rows, Cycle now)
{
    (void)rank;
    (void)sweep_start;
    (void)sweep_rows;
    (void)now;
    if (++refsSeen < refsPerPrune)
        return;
    refsSeen = 0;
    for (auto &table : tables) {
        for (auto it = table.begin(); it != table.end();) {
            Entry &e = it->second;
            ++e.life;
            if (static_cast<double>(e.acts) <
                pruneRate * static_cast<double>(e.life)) {
                it = table.erase(it);
            } else {
                ++it;
            }
        }
    }
}

} // namespace bh
