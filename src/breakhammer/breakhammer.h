/**
 * @file
 * BreakHammer — the paper's primary contribution (§4).
 *
 * BreakHammer observes the RowHammer-preventive actions a mitigation
 * mechanism performs, attributes a RowHammer-preventive score to each
 * hardware thread proportionally to its share of row activations since the
 * previous action (§4.1), identifies suspect threads by thresholded
 * deviation from the mean (Alg 1, §4.2), and reduces a suspect's dynamic
 * memory request quota — the number of LLC cache-miss buffers (MSHRs) it
 * may allocate — per Eq 1 (§4.3).
 *
 * Score counters are kept in two time-interleaved sets (Fig 4): both train
 * continuously, only the older ("active") set answers suspect queries, and
 * at every throttling-window boundary the active set resets and the roles
 * swap, so queries are always answered by counters trained over at least
 * one full window.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cache/throttle_target.h"
#include "common/types.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Score attribution policy (§4.1; the ablation compares these). */
enum class ScoreAttribution
{
    /** Paper's method: proportional to each thread's activation share. */
    kProportional,
    /** Ablation: the thread with the most activations gets full credit. */
    kWinnerTakesAll,
};

/** BreakHammer configuration (defaults = Table 2 of the paper). */
struct BreakHammerConfig
{
    /** Throttling-window length (64 ms, matching the refresh window). */
    Cycle window = msToCycles(64.0);
    /** Minimum score for a thread to be a potential suspect (TH_threat). */
    double thThreat = 32.0;
    /** Allowed divergence from the mean score (TH_outlier). */
    double thOutlier = 0.65;
    /** Linear quota reduction for repeat suspects (P_oldsuspect). */
    unsigned pOldSuspect = 1;
    /** Quota divisor for fresh suspects (P_newsuspect). */
    unsigned pNewSuspect = 10;
    /** Attribution policy (ablation knob; default = the paper's). */
    ScoreAttribution attribution = ScoreAttribution::kProportional;
    /**
     * Ablation knob: use a single hard-reset counter set instead of the
     * two time-interleaved sets of Fig 4 (training is lost at every
     * window boundary, so attackers pacing across boundaries escape).
     */
    bool singleCounterSet = false;
};

/** The BreakHammer mechanism. */
class BreakHammer : public IActionObserver
{
  public:
    /**
     * @param num_threads Hardware thread count.
     * @param target Resource pool to throttle (the LLC MSHR file).
     */
    BreakHammer(unsigned num_threads, const BreakHammerConfig &config,
                IThrottleTarget *target);

    // --- IActionObserver -------------------------------------------
    void onDemandActivate(ThreadId thread, unsigned flat_bank,
                          Cycle now) override;
    void onPreventiveAction(double weight, Cycle now) override;
    void onDirectScore(ThreadId thread, double amount, Cycle now) override;

    // --- Queries (the "software feedback" API of §4 exposes these) --
    /** Active-set RowHammer-preventive score of @p thread. */
    double score(ThreadId thread) const;

    /** Whether @p thread is currently marked suspect. */
    bool isSuspect(ThreadId thread) const { return suspect[thread]; }

    /** Whether @p thread was a suspect in the previous window. */
    bool wasRecentSuspect(ThreadId thread) const
    {
        return recentSuspect[thread];
    }

    /** Current dynamic request quota of @p thread. */
    unsigned quota(ThreadId thread) const { return quotas[thread]; }

    /** Times any thread was marked suspect (distinct marks). */
    std::uint64_t suspectMarks() const { return suspectMarks_; }

    /** Preventive actions observed. */
    std::uint64_t actionsObserved() const { return actionsObserved_; }

    const BreakHammerConfig &config() const { return config_; }

    /**
     * Advance window bookkeeping to @p now. Called internally by every
     * observer hook; exposed so idle periods can also roll windows.
     */
    void rollWindows(Cycle now);

    /**
     * Cycle of the next throttling-window boundary. rollWindows(t) is a
     * no-op for every t below this; at or past it, a window ends (quotas
     * of threads that stayed benign are restored, counter sets swap).
     * System::run's skip-ahead loop must not jump over it.
     */
    Cycle nextWindowBoundary() const { return windowStart + config_.window; }

    /**
     * Serialize both counter sets, window bookkeeping, suspect flags,
     * and quotas (mirrors the IMitigation::saveState contract).
     */
    void saveState(StateWriter &w) const { transfer(w, *this); }

    /** Restore saveState() output into a same-config instance. */
    void loadState(StateReader &r) { transfer(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("breakhammer");
        ar.fixedVec(self.scoreSet[0], asDouble);
        ar.fixedVec(self.scoreSet[1], asDouble);
        ar.u64(self.active);
        ar.check(self.active <= 1);
        ar.u64(self.windowStart);
        ar.fixedVec(self.activations, asU64);
        ar.fixedVec(self.suspect, asBool);
        ar.fixedVec(self.recentSuspect, asBool);
        ar.fixedVec(self.quotas, asU64);
        ar.u64(self.suspectMarks_);
        ar.u64(self.actionsObserved_);
    }

    void updateScores(double weight, Cycle now);
    void checkOutliers(Cycle now);
    void markSuspect(ThreadId thread);
    void endWindow();

    const BreakHammerConfig config_;
    const unsigned numThreads;
    IThrottleTarget *const target;

    /** Two time-interleaved score sets; `active` answers queries. */
    std::vector<double> scoreSet[2];
    unsigned active = 0;
    Cycle windowStart = 0;

    /** Per-thread activations since the last preventive action. */
    std::vector<std::uint64_t> activations;

    std::vector<bool> suspect;       ///< Marked in the current window.
    std::vector<bool> recentSuspect; ///< Marked in the previous window.
    std::vector<unsigned> quotas;

    std::uint64_t suspectMarks_ = 0;
    std::uint64_t actionsObserved_ = 0;
};

} // namespace bh
