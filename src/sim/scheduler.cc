#include "sim/scheduler.h"

#include <algorithm>
#include <mutex>
#include <thread>

#include "sim/parallel_for.h"

namespace bh {

ExperimentScheduler::ExperimentScheduler(SchedulerOptions options)
    : options(std::move(options))
{
    threads = this->options.threads
                  ? this->options.threads
                  : std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t
ExperimentScheduler::deriveRunSeed(std::uint64_t base_seed,
                                   std::size_t index)
{
    // SplitMix64 finalizer over (base, index): decorrelated, and a pure
    // function of the grid position — never of execution order.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull *
                                      (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return z ? z : 1;
}

std::vector<ExperimentResult>
ExperimentScheduler::run(const std::vector<ExperimentConfig> &configs)
{
    std::vector<ExperimentConfig> grid = configs;
    if (options.deriveSeeds)
        for (std::size_t i = 0; i < grid.size(); ++i)
            grid[i].seed = deriveRunSeed(grid[i].seed, i);

    if (options.precacheSoloIpcs) {
        // Phase 1: warm the weighted-speedup denominators. Each unique
        // (app, insts) solo run executes exactly once; without this,
        // workers holding the same mix would duplicate the run and one
        // result would be discarded at cache insert.
        std::vector<std::pair<std::string, std::uint64_t>> deps =
            soloDependencies(grid);
        parallelFor(deps.size(), threads, [&](std::size_t i) {
            soloIpc(deps[i].first, deps[i].second, options.run.soloSink);
        });
    }

    // Phase 2: the experiment grid itself.
    std::vector<ExperimentResult> results(grid.size());
    std::mutex stream_mutex;
    parallelFor(grid.size(), threads, [&](std::size_t i) {
        results[i] = runExperiment(grid[i], options.run);
        if (options.log)
            options.log->append(i, experimentKey(grid[i]),
                                experimentResultToJson(grid[i],
                                                       results[i]));
        if (options.onResult) {
            std::lock_guard<std::mutex> lock(stream_mutex);
            options.onResult(i, grid[i], results[i]);
        }
    });
    return results;
}

} // namespace bh
