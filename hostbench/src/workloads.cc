/**
 * @file
 * The four benchmark grids. Shapes and scales are fixed here; only the
 * trace seed comes from the command line, so one seed always yields the
 * same inputs.
 */
#include "hostbench.h"

#include <ctime>

#include "mitigation/factory.h"
#include "sim/mixes.h"

namespace hb {

using bh::ExperimentConfig;
using bh::MitigationType;

double
monoNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "attack", "benign-4ch", "sampled", "sweep-svc"};
    return names;
}

namespace {

ExperimentConfig
point(const bh::MixSpec &mix, MitigationType mech, unsigned n_rh,
      bool breakhammer, std::uint64_t insts, std::uint64_t seed)
{
    ExperimentConfig c;
    c.mix = mix;
    c.mechanism = mech;
    c.nRh = n_rh;
    c.breakHammer = breakhammer;
    c.instructions = insts;
    c.seed = seed;
    return c;
}

/**
 * N_RH = 64 attack mixes: every paired mechanism acts and every +BH
 * point marks a suspect at 50k instructions. BlockHammer alone covers
 * its ACT-delay probe path (N_RH = 1024) and the cycle-capped
 * pathological case (N_RH = 64).
 */
std::vector<ExperimentConfig>
attackGrid(std::uint64_t seed)
{
    const std::uint64_t insts = 50000;
    std::vector<ExperimentConfig> grid;
    for (const char *pattern : {"HHMA", "MMLA"}) {
        bh::MixSpec mix = bh::makeMix(pattern, 0);
        for (MitigationType mech : bh::pairedMitigations())
            for (bool on : {false, true})
                grid.push_back(point(mix, mech, 64, on, insts, seed));
        for (unsigned n_rh : {1024u, 64u})
            grid.push_back(point(mix, MitigationType::kBlockHammer, n_rh,
                                 false, insts, seed));
    }
    return grid;
}

/** Four-channel benign mixes: mitigations and BreakHammer nearly idle. */
std::vector<ExperimentConfig>
benignGrid(std::uint64_t seed)
{
    const std::uint64_t insts = 20000;
    const MitigationType mechs[] = {
        MitigationType::kNone,  MitigationType::kPara,
        MitigationType::kGraphene, MitigationType::kHydra,
        MitigationType::kRfm,   MitigationType::kPrac};
    std::vector<ExperimentConfig> grid;
    for (const char *pattern : {"HHMM", "MMLL", "HHLL", "LLLL"}) {
        bh::MixSpec mix = bh::makeMix(pattern, 0);
        for (MitigationType mech : mechs) {
            ExperimentConfig c = point(mix, mech, 1024, true, insts, seed);
            c.channels = 4;
            grid.push_back(c);
        }
    }
    return grid;
}

/** Interval-sampled points: nine 10k/10k/80k windows over 1M insts. */
std::vector<ExperimentConfig>
sampledGrid(std::uint64_t seed)
{
    std::vector<ExperimentConfig> grid;
    for (const char *pattern : {"HHMA", "MMLA"}) {
        bh::MixSpec mix = bh::makeMix(pattern, 0);
        for (MitigationType mech :
             {MitigationType::kPara, MitigationType::kGraphene,
              MitigationType::kHydra}) {
            ExperimentConfig c = point(mix, mech, 64, true, 1000000, seed);
            c.sample.warmup = 10000;
            c.sample.measure = 10000;
            c.sample.fastForward = 80000;
            grid.push_back(c);
        }
    }
    return grid;
}

/** 192 short units: where per-unit service overhead shows. */
std::vector<ExperimentConfig>
sweepGrid(std::uint64_t seed)
{
    std::vector<ExperimentConfig> grid;
    const std::vector<std::string> &patterns = bh::attackMixPatterns();
    for (std::size_t p = 0; p < 4; ++p)
        for (unsigned index = 0; index < 3; ++index) {
            bh::MixSpec mix = bh::makeMix(patterns[p], index);
            for (MitigationType mech : bh::pairedMitigations())
                for (bool on : {false, true})
                    grid.push_back(
                        point(mix, mech, 1024, on, 5000, seed));
        }
    return grid;
}

/**
 * @p grid once per trace seed seed*copies .. seed*copies+copies-1. A
 * point's host cost varies with its trace seed (HHMA#0 Hydra by 1.8x
 * across seeds), so grids with few or unevenly priced points average
 * several seeds per pass to keep runs at different seeds comparable.
 */
std::vector<ExperimentConfig>
overSeeds(const std::vector<ExperimentConfig> &grid, std::uint64_t seed,
          unsigned copies)
{
    std::vector<ExperimentConfig> out;
    for (unsigned j = 0; j < copies; ++j)
        for (ExperimentConfig c : grid) {
            c.seed = seed * copies + j;
            out.push_back(std::move(c));
        }
    return out;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    Workload w;
    w.name = name;
    if (name == "attack") {
        w.grid = overSeeds(attackGrid(seed), seed, 2);
        w.liveness = true;
    } else if (name == "benign-4ch") {
        w.grid = overSeeds(benignGrid(seed), seed, 4);
    } else if (name == "sampled") {
        w.grid = overSeeds(sampledGrid(seed), seed, 2);
    } else if (name == "sweep-svc") {
        w.grid = sweepGrid(seed);
        w.service = true;
    } else {
        return false;
    }
    // Resolve once, so keys, records and replicas all see the same
    // explicit horizon, window, channel and rank values.
    for (ExperimentConfig &c : w.grid)
        c = bh::resolveExperimentConfig(c);
    *out = std::move(w);
    return true;
}

bool
capExpected(const ExperimentConfig &config)
{
    return config.mechanism == MitigationType::kBlockHammer &&
           config.nRh <= 64;
}

} // namespace hb
