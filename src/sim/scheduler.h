/**
 * @file
 * Parallel experiment engine.
 *
 * The experiment grids of the paper's evaluation — (mix × mechanism ×
 * N_RH × BreakHammer on/off) — are embarrassingly parallel: every point
 * is an independent System simulation. The ExperimentScheduler shards an
 * arbitrary vector of ExperimentConfigs across a work-stealing pool of
 * worker threads and guarantees that the results are bit-identical no
 * matter how many workers run them:
 *
 *  - every System is seeded from its config alone (optionally derived
 *    per grid index with deriveRunSeed(), never from execution order);
 *  - the shared solo-IPC cache (weighted-speedup denominators) is warmed
 *    before the sweep, so no worker recomputes — or races to compute —
 *    a denominator mid-run;
 *  - results land in a slot indexed by grid position, and the optional
 *    streaming sink orders its JSON export by that index.
 *
 * Memoization across figures and processes lives one layer up, in the
 * content-addressed ResultStore (sim/result_store.h), which feeds its
 * misses through this scheduler.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "stats/result_log.h"

namespace bh {

/** Scheduler tuning and streaming hooks. */
struct SchedulerOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned threads = 0;

    /**
     * Warm the solo-IPC cache (one solo run per unique (app, insts)
     * pair, in parallel) before the experiment sweep.
     */
    bool precacheSoloIpcs = true;

    /**
     * Derive each run's seed from (config.seed, grid index) via
     * deriveRunSeed() so grid points decorrelate without the caller
     * hand-assigning seeds. Off by default: results then match a direct
     * runExperiment() of the same config.
     */
    bool deriveSeeds = false;

    /**
     * Streamed completion callback, invoked serially (under a lock) from
     * worker threads, in completion order — which is not deterministic;
     * use the index argument (or a ResultLog) to reorder.
     */
    std::function<void(std::size_t index, const ExperimentConfig &config,
                       const ExperimentResult &result)>
        onResult;

    /** Optional sink: every result is appended as (index, key, JSON). */
    ResultLog *log = nullptr;

    /** How every point (and every warmed solo IPC) runs. */
    RunOptions run;
};

/** Work-stealing parallel runner for experiment grids. */
class ExperimentScheduler
{
  public:
    explicit ExperimentScheduler(SchedulerOptions options = {});

    /**
     * Run every config and return results in grid order. Blocks until
     * the whole grid completes. Deterministic: the result vector is a
     * pure function of @p configs, independent of thread count.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentConfig> &configs);

    /** Worker threads this scheduler will use. */
    unsigned threadCount() const { return threads; }

    /**
     * Mix @p base_seed with @p index (SplitMix64 finalizer) into a
     * decorrelated, order-independent per-run seed.
     */
    static std::uint64_t deriveRunSeed(std::uint64_t base_seed,
                                       std::size_t index);

  private:
    SchedulerOptions options;
    unsigned threads;
};

} // namespace bh
