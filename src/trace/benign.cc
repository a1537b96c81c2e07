#include "trace/benign.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

namespace {

/**
 * Rows per bank @p profile uses out of its @p row_span: the region is
 * bounded so the working set matches the profile — the app only touches
 * enough rows (across all banks of all channels) to cover its lines.
 */
unsigned
usedRowSpan(const AppProfile &profile, const DramOrg &org,
            unsigned row_span)
{
    BH_ASSERT(row_span > 0, "benign trace needs a row region");
    std::uint64_t lines_per_row_layer =
        static_cast<std::uint64_t>(org.totalBanks()) * org.linesPerRow *
        org.channels;
    unsigned needed_rows = static_cast<unsigned>(std::max<std::uint64_t>(
        1, (profile.workingSetLines + lines_per_row_layer - 1) /
               lines_per_row_layer));
    return std::min(row_span, needed_rows);
}

} // namespace

BenignTrace::BenignTrace(const AppProfile &profile,
                         const AddressMap &mapper, unsigned row_base,
                         unsigned row_span, std::uint64_t seed)
    : profile_(profile), mapper(mapper), rowBase(row_base),
      rowSpan(usedRowSpan(profile, mapper.org(), row_span)), rng(seed),
      seqPos{0, 0, 0, row_base}, hotRowRefs(drawHotRows(profile.hotRows))
{}

std::vector<BenignTrace::RowRef>
BenignTrace::drawHotRows(unsigned count)
{
    std::vector<RowRef> refs;
    refs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        refs.push_back(randomRow());
    return refs;
}

Addr
BenignTrace::encode(const RowRef &ref, unsigned column) const
{
    DramAddress da;
    da.rank = ref.rank;
    da.bankGroup = ref.bankGroup;
    da.bank = ref.bank;
    da.row = ref.row;
    da.column = column;
    da.channel = ref.channel;
    return mapper.encode(da);
}

BenignTrace::RowRef
BenignTrace::randomRow()
{
    const DramOrg &org = mapper.org();
    RowRef ref;
    ref.rank = static_cast<unsigned>(rng.nextBounded(org.ranks));
    ref.bankGroup = static_cast<unsigned>(rng.nextBounded(org.bankGroups));
    ref.bank = static_cast<unsigned>(rng.nextBounded(org.banksPerGroup));
    ref.row = rowBase + static_cast<unsigned>(rng.nextBounded(rowSpan));
    // Guarded draw: nextBounded(1) would still consume RNG state, which
    // must not differ from the historical single-channel stream.
    if (org.channels > 1)
        ref.channel = static_cast<unsigned>(rng.nextBounded(org.channels));
    return ref;
}

TraceRecord
BenignTrace::next()
{
    const DramOrg &org = mapper.org();
    TraceRecord rec;

    // Uniform in [0, 2*avgBubbles]: preserves the mean, cheap to sample.
    auto bubble_bound =
        static_cast<std::uint64_t>(2.0 * profile_.avgBubbles) + 1;
    rec.bubbles = static_cast<std::uint32_t>(rng.nextBounded(bubble_bound));
    rec.isWrite = rng.nextBool(profile_.writeFraction);

    if (rng.nextBool(profile_.rowLocality)) {
        // Sequential advance: walk columns of the current row, then move to
        // the next bank, then the next row layer (wrapping in the region).
        if (++seqColumn >= org.linesPerRow) {
            seqColumn = 0;
            if (++seqPos.bank >= org.banksPerGroup) {
                seqPos.bank = 0;
                if (++seqPos.bankGroup >= org.bankGroups) {
                    seqPos.bankGroup = 0;
                    if (++seqPos.rank >= org.ranks) {
                        seqPos.rank = 0;
                        if (++seqPos.channel >= org.channels) {
                            seqPos.channel = 0;
                            seqPos.row =
                                rowBase +
                                (seqPos.row - rowBase + 1) % rowSpan;
                        }
                    }
                }
            }
        }
        rec.addr = encode(seqPos, seqColumn);
        return rec;
    }

    if (!hotRowRefs.empty() && rng.nextBool(profile_.hotFraction)) {
        const RowRef &hot =
            hotRowRefs[rng.nextBounded(hotRowRefs.size())];
        rec.addr = encode(
            hot, static_cast<unsigned>(rng.nextBounded(org.linesPerRow)));
        return rec;
    }

    RowRef target = randomRow();
    rec.addr = encode(
        target, static_cast<unsigned>(rng.nextBounded(org.linesPerRow)));
    return rec;
}

namespace {

AppProfile
makeApp(const char *name, IntensityTier tier, double bubbles, double writes,
        double locality, std::uint64_t ws_lines, unsigned hot_rows,
        double hot_fraction)
{
    AppProfile p;
    p.name = name;
    p.tier = tier;
    p.avgBubbles = bubbles;
    p.writeFraction = writes;
    p.rowLocality = locality;
    p.workingSetLines = ws_lines;
    p.hotRows = hot_rows;
    p.hotFraction = hot_fraction;
    return p;
}

} // namespace

const std::vector<AppProfile> &
appCatalog()
{
    static const std::vector<AppProfile> catalog = {
        // High intensity (RBMPKI >= 20): large working sets, frequent
        // misses, per-row ACT tails echoing Table 3.
        makeApp("mcf_like", IntensityTier::kHigh, 12, 0.25, 0.15,
                6ull << 20, 2600, 0.40),
        makeApp("lbm_like", IntensityTier::kHigh, 18, 0.40, 0.55,
                4ull << 20, 660, 0.25),
        makeApp("libquantum_like", IntensityTier::kHigh, 22, 0.10, 0.45,
                8ull << 20, 0, 0.0),
        makeApp("fotonik3d_like", IntensityTier::kHigh, 20, 0.20, 0.45,
                4ull << 20, 1000, 0.30),
        makeApp("gemsfdtd_like", IntensityTier::kHigh, 20, 0.25, 0.45,
                4ull << 20, 1050, 0.30),
        makeApp("zeusmp_like", IntensityTier::kHigh, 20, 0.25, 0.45,
                3ull << 20, 1100, 0.30),
        makeApp("lbm17_like", IntensityTier::kHigh, 18, 0.40, 0.50,
                4ull << 20, 580, 0.25),
        // Medium intensity (10 <= RBMPKI < 20).
        makeApp("parest_like", IntensityTier::kMedium, 42, 0.20, 0.50,
                2ull << 20, 120, 0.20),
        makeApp("tpcc_like", IntensityTier::kMedium, 52, 0.35, 0.30,
                3ull << 20, 200, 0.05),
        makeApp("tpch_like", IntensityTier::kMedium, 50, 0.15, 0.40,
                3ull << 20, 0, 0.0),
        makeApp("ycsb_a_like", IntensityTier::kMedium, 60, 0.50, 0.35,
                2ull << 20, 100, 0.05),
        makeApp("cactus_like", IntensityTier::kMedium, 44, 0.25, 0.50,
                2ull << 20, 400, 0.10),
        makeApp("omnetpp_like", IntensityTier::kMedium, 48, 0.30, 0.30,
                2ull << 20, 0, 0.0),
        // Low intensity (RBMPKI < 10): small working sets that largely fit
        // in the LLC, long compute phases.
        makeApp("namd_like", IntensityTier::kLow, 220, 0.20, 0.70,
                64ull << 10, 0, 0.0),
        makeApp("povray_like", IntensityTier::kLow, 300, 0.15, 0.80,
                32ull << 10, 0, 0.0),
        makeApp("h264_like", IntensityTier::kLow, 180, 0.30, 0.60,
                96ull << 10, 0, 0.0),
        makeApp("leela_like", IntensityTier::kLow, 260, 0.20, 0.50,
                48ull << 10, 0, 0.0),
        makeApp("deepsjeng_like", IntensityTier::kLow, 200, 0.25, 0.55,
                80ull << 10, 0, 0.0),
        makeApp("ycsb_c_like", IntensityTier::kLow, 240, 0.05, 0.40,
                100ull << 10, 0, 0.0),
    };
    return catalog;
}

const AppProfile &
findApp(const std::string &name)
{
    for (const AppProfile &p : appCatalog())
        if (p.name == name)
            return p;
    BH_FATAL("unknown application profile name");
}

std::vector<AppProfile>
appsInTier(IntensityTier tier)
{
    std::vector<AppProfile> out;
    for (const AppProfile &p : appCatalog())
        if (p.tier == tier)
            out.push_back(p);
    return out;
}

} // namespace bh
