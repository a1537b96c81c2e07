#include "trace/adaptive.h"

#include <algorithm>

namespace bh {

namespace {

/** Idle-phase pacing: benign-looking low-intensity compute. */
constexpr std::uint32_t kIdleBubbles = 48;

/**
 * The configured rotation stride, or by default one that shifts past the
 * row span of @p seq plus a guard gap, so rotated windows never overlap
 * the previous victims.
 */
unsigned
rotationStride(const AttackerConfig &attack, const AdaptiveConfig &adaptive,
               const std::vector<unsigned> &seq)
{
    if (adaptive.rotationStride)
        return adaptive.rotationStride;
    unsigned span = 0;
    for (unsigned row : seq)
        span = std::max(span, row - attack.rowBase + 1);
    return span + 8;
}

} // namespace

AdaptiveAttackerTrace::AdaptiveAttackerTrace(const AttackerConfig &attack,
                                             const AdaptiveConfig &adaptive,
                                             const AddressMap &mapper,
                                             std::uint64_t seed)
    : attack_(attack), adaptive_(adaptive), mapper(mapper), rng(seed),
      seq(attackerRowSequence(attack)),
      bankCoords(attackerBankCoords(mapper.org(),
                                    attackedBankCount(attack, mapper.org()))),
      stride(rotationStride(attack, adaptive, seq)),
      // Idle-phase cached accesses live far from any rotated aggressor
      // window (half the bank away), so hand-off idling never hammers.
      idleRow((attack.rowBase + mapper.org().rowsPerBank / 2) %
              mapper.org().rowsPerBank),
      bubbles_(attack.bubbles)
{}

bool
AdaptiveAttackerTrace::activeNow() const
{
    return slotActiveAt(recordCount, adaptive_, adaptive_.slotIndex);
}

unsigned
AdaptiveAttackerTrace::rotatedRow(unsigned base_row) const
{
    const DramOrg &org = mapper.org();
    std::uint64_t shifted =
        static_cast<std::uint64_t>(base_row) +
        static_cast<std::uint64_t>(rotation_) * stride;
    return static_cast<unsigned>(shifted % org.rowsPerBank);
}

std::vector<unsigned>
AdaptiveAttackerTrace::currentAggressorRows() const
{
    std::vector<unsigned> rows = attackerAggressorRows(attack_);
    for (unsigned &row : rows)
        row = rotatedRow(row);
    return rows;
}

TraceRecord
AdaptiveAttackerTrace::next()
{
    bool active = activeNow();
    ++recordCount;

    TraceRecord rec;
    rec.isWrite = false;

    if (!active) {
        // Hand-off idle phase: benign-looking cached compute on a fixed
        // line far from every aggressor window. No RNG draw, no feedback
        // sample — the idle stream is a pure function of the schedule.
        rec.bubbles = kIdleBubbles;
        rec.uncached = false;
        DramAddress da = bankCoords[0];
        da.row = idleRow;
        da.column = 0;
        rec.addr = mapper.encode(da);
        return rec;
    }

    // Observation point: sample the feedback view every observeEvery
    // attacking records and mutate the pattern. Decisions are counted in
    // records (never cycles), so the decision sequence is a pure function
    // of the observed feedback values.
    if (feedback && adaptive_.observeEvery > 0 &&
        ++sinceObserve >= adaptive_.observeEvery) {
        sinceObserve = 0;
        ThrottleFeedback fb = feedback->sampleThrottleFeedback(self_);
        ++observationCount;
        lastScore_ = fb.score;
        lastQuota_ = fb.quota;
        if (fb.throttled()) {
            ++throttledObs;
            calmCount = 0;
            // Back off the pacing and rotate to a fresh aggressor
            // window: the score already attributed to the old rows'
            // preventive actions stops growing, and the halved access
            // rate slows re-accumulation.
            bubbles_ = std::min<std::uint32_t>(
                adaptive_.maxBubbles,
                bubbles_ ? bubbles_ * 2 : 1);
            ++rotation_;
            rowCursor = 0;
            bankCursor = 0;
        } else if (++calmCount >= adaptive_.calmStreak) {
            calmCount = 0;
            // Quiet streak: re-accelerate one step toward full rate.
            bubbles_ = std::max<std::uint32_t>(attack_.bubbles,
                                               bubbles_ / 2);
        }
    }

    rec.bubbles = bubbles_;
    rec.uncached = true;

    DramAddress da = bankCoords[bankCursor];
    da.row = rotatedRow(seq[rowCursor]);
    da.column = static_cast<unsigned>(
        rng.nextBounded(mapper.org().linesPerRow));

    if (++bankCursor >= bankCoords.size()) {
        bankCursor = 0;
        rowCursor = (rowCursor + 1) % static_cast<unsigned>(seq.size());
    }

    rec.addr = mapper.encode(da);
    return rec;
}

} // namespace bh
