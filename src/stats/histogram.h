/**
 * @file
 * Streaming histogram for latency percentile reporting (Figs 11 and 17).
 *
 * Fixed-width bins over [0, max) with a saturating overflow bin. Memory
 * latencies of benign requests are recorded in nanoseconds; percentile
 * queries interpolate within the containing bin.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/snapshot.h"

namespace bh {

/** Fixed-bin streaming histogram with percentile queries. */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin in recorded units.
     * @param num_bins Number of regular bins; values beyond the last bin
     *                 land in a saturating overflow bin.
     */
    explicit Histogram(double bin_width = 1.0, std::size_t num_bins = 4096)
        : binWidth_(bin_width), bins(num_bins + 1, 0)
    {
        BH_ASSERT(bin_width > 0.0, "histogram bin width must be positive");
    }

    /**
     * Record one sample. NaN samples carry no orderable value and are
     * dropped (counted in droppedSamples()); every finite value lands in
     * a bin. The quotient is clamped against the overflow-bin index in
     * floating point BEFORE the size_t cast: casting a double beyond the
     * target range (a huge sample, or +inf) is undefined behavior.
     */
    void
    record(double value)
    {
        if (std::isnan(value)) {
            ++dropped_;
            return;
        }
        if (value < 0.0)
            value = 0.0;
        double quotient = value / binWidth_;
        double overflow = static_cast<double>(bins.size() - 1);
        std::size_t idx = quotient >= overflow
                              ? bins.size() - 1
                              : static_cast<std::size_t>(quotient);
        ++bins[idx];
        ++count_;
        sum_ += value;
        if (value > max_)
            max_ = value;
    }

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** NaN samples rejected by record() (diagnostics; not in count()). */
    std::uint64_t droppedSamples() const { return dropped_; }

    /** Mean of recorded samples (0 if empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Largest recorded sample. */
    double max() const { return max_; }

    /**
     * Value below which @p pct percent of samples fall.
     *
     * Edge cases (pinned by test_json_stats):
     *  - empty histogram: 0 for every pct;
     *  - pct <= 0: the lower edge of the first occupied bin (the
     *    histogram's lower bound on the minimum — not a flat 0, which
     *    would misreport distributions that start far from the origin);
     *  - pct >= 100: the exact observed maximum;
     *  - samples in the overflow bin have no upper bin edge to
     *    interpolate toward, so queries landing there report the
     *    observed maximum;
     *  - interpolation never exceeds the observed maximum (a lone
     *    sample's p99 must not extrapolate past the sample itself).
     *
     * @param pct Percentile in [0, 100]; values outside clamp.
     */
    double
    percentile(double pct) const
    {
        if (count_ == 0)
            return 0.0;
        if (pct <= 0.0) {
            for (std::size_t i = 0; i < bins.size(); ++i)
                if (bins[i] != 0)
                    return std::min(static_cast<double>(i) * binWidth_,
                                    max_);
            return 0.0; // Unreachable: count_ > 0 implies an occupied bin.
        }
        if (pct >= 100.0)
            return max_;
        double target = pct / 100.0 * static_cast<double>(count_);
        double running = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            double next = running + static_cast<double>(bins[i]);
            if (next >= target) {
                if (i == bins.size() - 1)
                    return max_; // overflow bin: report observed max
                double frac =
                    bins[i] ? (target - running) / static_cast<double>(bins[i])
                            : 0.0;
                // The bin edge can overshoot the largest sample actually
                // recorded; the observed max caps every answer.
                return std::min(
                    (static_cast<double>(i) + frac) * binWidth_, max_);
            }
            running = next;
        }
        return max_;
    }

    /** Merge another histogram with identical geometry into this one. */
    void
    merge(const Histogram &other)
    {
        BH_ASSERT(other.bins.size() == bins.size() &&
                      other.binWidth_ == binWidth_,
                  "histogram geometry mismatch in merge");
        for (std::size_t i = 0; i < bins.size(); ++i)
            bins[i] += other.bins[i];
        count_ += other.count_;
        sum_ += other.sum_;
        dropped_ += other.dropped_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    /** Drop all samples. */
    void
    reset()
    {
        std::fill(bins.begin(), bins.end(), 0);
        count_ = 0;
        sum_ = 0.0;
        max_ = 0.0;
        dropped_ = 0;
    }

    // --- raw access (JSON export / exact comparison) -----------------

    /** Bin width in recorded units. */
    double binWidth() const { return binWidth_; }

    /** Raw bin counts; the final element is the overflow bin. */
    const std::vector<std::uint64_t> &rawBins() const { return bins; }

    /** Sum of all recorded samples. */
    double sum() const { return sum_; }

    /**
     * Rebuild a histogram from exported raw state (the inverse of
     * rawBins()/sum()/max()); @p raw_bins must include the overflow bin.
     */
    static Histogram
    fromRaw(double bin_width, std::vector<std::uint64_t> raw_bins,
            double sum, double max)
    {
        BH_ASSERT(!raw_bins.empty(), "histogram needs an overflow bin");
        Histogram h(bin_width, raw_bins.size() - 1);
        h.bins = std::move(raw_bins);
        for (std::uint64_t c : h.bins)
            h.count_ += c;
        h.sum_ = sum;
        h.max_ = max;
        return h;
    }

    /** Serialize the accumulator state (geometry stays constructor-set). */
    void saveState(StateWriter &w) const { transfer(w, *this); }

    /** Restore saveState() output; geometry mismatch is a failure. */
    void loadState(StateReader &r) { transfer(r, *this); }

    /**
     * JSON layout (stats/json_archive.h): the raw state, so a decoded
     * histogram answers every query like the original. Only occupied
     * bins travel, as [index, count] pairs, since latency histograms
     * are sparse. The decoder checks the geometry before sizing bins.
     */
    template <class Ar, class Self>
    static void
    jsonTransfer(Ar &ar, Self &self)
    {
        // The simulator's histograms use 4096 bins: a corrupt count must
        // fail the decode, not allocate without bound.
        constexpr std::uint64_t kMaxBins = 1u << 20;
        std::uint64_t num_bins = self.bins.size() - 1;
        ar.d("bin_width", self.binWidth_);
        ar.u64("num_bins", num_bins);
        ar.d("sum", self.sum_);
        ar.d("max", self.max_);
        ar.check(self.binWidth_ > 0.0 && num_bins <= kMaxBins);
        if constexpr (Ar::kLoading) {
            if (!ar.ok())
                return;
            self.bins.assign(num_bins + 1, 0);
        }
        ar.sparse("bins", self.bins);
        if constexpr (Ar::kLoading) {
            self.count_ = 0;
            for (std::uint64_t c : self.bins)
                self.count_ += c;
            self.dropped_ = 0;
        }
    }

    bool
    operator==(const Histogram &other) const
    {
        return binWidth_ == other.binWidth_ && bins == other.bins &&
               count_ == other.count_ && sum_ == other.sum_ &&
               max_ == other.max_ && dropped_ == other.dropped_;
    }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("hist");
        ar.expectD(self.binWidth_);
        ar.fixedVec(self.bins, asU64);
        ar.u64(self.count_);
        ar.d(self.sum_);
        ar.d(self.max_);
        ar.u64(self.dropped_);
    }

    double binWidth_;
    std::vector<std::uint64_t> bins;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
    std::uint64_t dropped_ = 0; ///< NaN samples rejected by record().
};

} // namespace bh
