#include "mitigation/blockhammer.h"

#include <algorithm>

namespace bh {

BlockHammer::BlockHammer(unsigned n_rh, const DramSpec &spec,
                         unsigned num_threads)
    : nbl(std::max(2u, n_rh / 4)),
      epochLength(spec.timing.tREFW / 2),
      // After blacklisting at NBL, spacing ACTs by tDelay caps a row at
      // NBL + epoch/tDelay <= N_RH / 2 activations per epoch, i.e., at
      // most N_RH per refresh window across the two epochs it can span.
      tDelay(epochLength / std::max(1u, nbl)),
      threadBlacklistActs(num_threads, 0),
      attackThreshold(std::max(4u, n_rh / 2))
{}

void
BlockHammer::rollEpoch(Cycle now)
{
    while (now - epochStart >= epochLength) {
        cbf[active].clear();
        active ^= 1;
        epochStart += epochLength;
        lastBlacklistedAct.clear();
        std::fill(threadBlacklistActs.begin(), threadBlacklistActs.end(),
                  0);
        if (throttleTarget != nullptr) {
            for (ThreadId t = 0; t < threadBlacklistActs.size(); ++t)
                throttleTarget->setQuota(t, throttleTarget->fullQuota());
        }
    }
}

void
BlockHammer::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                       Cycle now)
{
    rollEpoch(now);
    std::uint64_t key = keyOf(flat_bank, row);
    cbf[0].increment(key);
    cbf[1].increment(key);

    if (cbf[active].estimate(key) >= nbl) {
        ++blacklistedActs_;
        lastBlacklistedAct[key] = now;
        if (thread < threadBlacklistActs.size()) {
            if (++threadBlacklistActs[thread] >= attackThreshold &&
                throttleTarget != nullptr) {
                // AttackThrottler: pin the offender to a small quota for
                // the remainder of the epoch.
                unsigned reduced =
                    std::max(1u, throttleTarget->fullQuota() / 8);
                throttleTarget->setQuota(thread, reduced);
            }
        }
    }
}

Cycle
BlockHammer::probeActReleaseCycle(unsigned flat_bank, unsigned row,
                                  ThreadId thread, Cycle now) const
{
    (void)thread;
    // An elapsed epoch boundary clears every delay; report that outcome
    // without applying the roll (probes must stay side-effect-free).
    if (now - epochStart >= epochLength)
        return now;
    std::uint64_t key = keyOf(flat_bank, row);
    if (cbf[active].estimate(key) < nbl)
        return now;
    auto it = lastBlacklistedAct.find(key);
    if (it == lastBlacklistedAct.end())
        return now;
    // The boundary releases the row even if the raw spacing would not.
    return std::min(it->second + tDelay, epochStart + epochLength);
}

Cycle
BlockHammer::nextTimedEventCycle(Cycle now) const
{
    Cycle boundary = epochStart + epochLength;
    while (boundary <= now)
        boundary += epochLength;
    return boundary;
}

} // namespace bh
