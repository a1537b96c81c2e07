/**
 * @file
 * Per-row activation census over fixed time windows.
 *
 * Used for two purposes: (1) the Table 3 workload characterization (average
 * number of rows with more than 512/128/64 activations per 64 ms window) and
 * (2) as the ground-truth row-activation record behind the RowHammer oracle
 * used by the test suite.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** Counts activations per (bank, row) in windows of fixed length. */
class RowCensus
{
  public:
    /** Summary of one completed window. */
    struct WindowSummary
    {
        std::uint64_t totalActs = 0;
        std::uint64_t rows512 = 0; ///< Rows with more than 512 ACTs.
        std::uint64_t rows128 = 0; ///< Rows with more than 128 ACTs.
        std::uint64_t rows64 = 0;  ///< Rows with more than 64 ACTs.
    };

    explicit RowCensus(Cycle window_length) : windowLength(window_length) {}

    /** Record one activation; rolls the window when @p now passes it. */
    void
    recordAct(unsigned flat_bank, unsigned row, Cycle now)
    {
        rollTo(now);
        std::uint64_t key =
            (static_cast<std::uint64_t>(flat_bank) << 32) | row;
        ++counts[key];
        ++actsInWindow;
    }

    /** Finish the current window (e.g., at end of simulation). */
    void
    flush(Cycle now)
    {
        closeWindow();
        windowStart = now;
    }

    /** Summaries of all completed windows. */
    const std::vector<WindowSummary> &windows() const { return windows_; }

    /** Mean over completed windows of rows whose ACT count exceeds @p n. */
    double
    meanRowsOver(unsigned n) const
    {
        if (windows_.empty())
            return 0.0;
        double total = 0.0;
        for (const auto &w : windows_) {
            if (n >= 512)
                total += static_cast<double>(w.rows512);
            else if (n >= 128)
                total += static_cast<double>(w.rows128);
            else
                total += static_cast<double>(w.rows64);
        }
        return total / static_cast<double>(windows_.size());
    }

    /** Activation count of a row in the current (open) window. */
    std::uint32_t
    currentCount(unsigned flat_bank, unsigned row) const
    {
        std::uint64_t key =
            (static_cast<std::uint64_t>(flat_bank) << 32) | row;
        auto it = counts.find(key);
        return it == counts.end() ? 0 : it->second;
    }

    /**
     * Rows with strictly more than @p n ACTs in the current (open)
     * window. Unlike meanRowsOver() this takes any threshold — the
     * adversarial-pattern tests use it to check a pattern's spatial
     * footprint (e.g. Half-Double's far/near activation split) without
     * waiting for a window to close.
     */
    std::uint64_t
    currentRowsOver(std::uint32_t n) const
    {
        std::uint64_t rows = 0;
        for (const auto &[key, count] : counts)
            if (count > n)
                ++rows;
        return rows;
    }

    /** Serialize the open window and all completed summaries. */
    void saveState(StateWriter &w) const { transfer(w, *this); }

    /** Restore saveState() output. */
    void loadState(StateReader &r) { transfer(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("census");
        ar.u64(self.windowStart);
        ar.u64(self.actsInWindow);
        ar.map(self.counts, asU64, asU32);
        ar.vec(self.windows_, [](auto &a, auto &s) {
            a.u64(s.totalActs);
            a.u64(s.rows512);
            a.u64(s.rows128);
            a.u64(s.rows64);
        });
    }

    void
    rollTo(Cycle now)
    {
        while (now >= windowStart + windowLength) {
            closeWindow();
            windowStart += windowLength;
        }
    }

    void
    closeWindow()
    {
        WindowSummary s;
        s.totalActs = actsInWindow;
        for (const auto &[key, count] : counts) {
            if (count > 512)
                ++s.rows512;
            if (count > 128)
                ++s.rows128;
            if (count > 64)
                ++s.rows64;
        }
        windows_.push_back(s);
        counts.clear();
        actsInWindow = 0;
    }

    const Cycle windowLength;
    Cycle windowStart = 0;
    std::uint64_t actsInWindow = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    std::vector<WindowSummary> windows_;
};

} // namespace bh
