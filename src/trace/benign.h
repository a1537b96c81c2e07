/**
 * @file
 * Synthetic benign workload generator and the application catalog.
 *
 * Each profile is tuned to land in one of the paper's memory-intensity
 * tiers (Table 3: High >= 20 RBMPKI, Medium >= 10, Low < 10) and to exhibit
 * a per-row activation tail comparable to the paper's characterization
 * (e.g., mcf-like workloads concentrate misses on thousands of hot rows,
 * libquantum-like workloads stream with almost no row reuse).
 *
 * Generators encode DRAM coordinates through the system's AddressMap so
 * that row-level behaviour (hot rows, streaming row reuse) is exact rather
 * than a statistical accident of bit slicing. Each core slot receives a
 * private row region so multi-programmed apps never share rows.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dram/address.h"
#include "trace/trace.h"

namespace bh {

/** Memory-intensity tier (Table 3 grouping). */
enum class IntensityTier
{
    kHigh,
    kMedium,
    kLow,
};

/** Tuning knobs of one synthetic application. */
struct AppProfile
{
    std::string name;
    IntensityTier tier = IntensityTier::kMedium;
    /** Mean non-memory instructions between memory accesses. */
    double avgBubbles = 50.0;
    /** Fraction of memory accesses that are stores. */
    double writeFraction = 0.2;
    /** Probability the next access continues sequentially in-row. */
    double rowLocality = 0.5;
    /** Distinct cache lines in the working set (drives LLC miss rate). */
    std::uint64_t workingSetLines = 1ull << 20;
    /** Number of heavily reused rows (drives the ACT-count tail). */
    unsigned hotRows = 0;
    /** Probability a non-sequential access targets the hot-row set. */
    double hotFraction = 0.0;
};

/** Synthetic benign trace source realizing an AppProfile. */
class BenignTrace : public TraceSource
{
  public:
    /**
     * @param profile Workload shape.
     * @param mapper Address mapper of the target system.
     * @param row_base First row (per bank) of this app's private region.
     * @param row_span Rows (per bank) available to this app.
     * @param seed Per-instance RNG seed (determinism per core slot).
     */
    BenignTrace(const AppProfile &profile, const AddressMap &mapper,
                unsigned row_base, unsigned row_span, std::uint64_t seed);

    TraceRecord next() override;
    const std::string &name() const override { return profile_.name; }
    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    const AppProfile &profile() const { return profile_; }

  private:
    struct RowRef
    {
        unsigned rank, bankGroup, bank, row;
        unsigned channel = 0;
    };

    Addr encode(const RowRef &ref, unsigned column) const;
    RowRef randomRow();
    /** @p count random rows; the constructor's first RNG draws. */
    std::vector<RowRef> drawHotRows(unsigned count);

    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("benign_trace");
        ar.state(self.rng);
        ar.u64(self.seqPos.rank);
        ar.u64(self.seqPos.bankGroup);
        ar.u64(self.seqPos.bank);
        ar.u64(self.seqPos.row);
        ar.u64(self.seqPos.channel);
        ar.u64(self.seqColumn);
    }

    const AppProfile profile_;
    const AddressMap &mapper;
    const unsigned rowBase;    ///< Per-slot row partition.
    const unsigned rowSpan; ///< Rows per bank used (working-set bound).
    Rng rng;

    RowRef seqPos;        ///< Current sequential stream position.
    unsigned seqColumn = 0;
    /** Initialized last: drawHotRows() reads rng, rowBase and rowSpan,
     *  and its draws must be the seeded RNG's first ones. */
    const std::vector<RowRef> hotRowRefs;
};

/** The built-in application catalog (names echo the paper's Table 3). */
const std::vector<AppProfile> &appCatalog();

/** Look up a catalog profile by name; fatal if unknown. */
const AppProfile &findApp(const std::string &name);

/** All catalog apps in a given tier. */
std::vector<AppProfile> appsInTier(IntensityTier tier);

} // namespace bh
