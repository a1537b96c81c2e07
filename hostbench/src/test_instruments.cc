/**
 * @file
 * The benchmark's own test: its instruments must not perturb what they
 * measure.
 *
 *  - Every layer driver produces identical counters with and without its
 *    timing wrappers (reads served, demand and preventive ACTs, suspect
 *    marks, BreakHammer quotas, LLC hits and quota rejections), and the
 *    wrappers are really in the call path when timing is on.
 *  - The System replica the traced run times reproduces the
 *    runExperiment() record of every point of every workload.
 *
 * Run: python3 hostbench/run.py --selftest (or ctest in hostbench/build).
 */
#include <cstdio>
#include <string>

#include "hostbench.h"

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

void
testWorkload(const std::string &name)
{
    hb::Workload w;
    check(hb::makeWorkload(name, hb::kGoldenSeed, &w), "workload " + name);
    std::size_t replicas = 0;
    for (const bh::ExperimentConfig &cfg : w.grid) {
        const std::string key = bh::experimentKey(cfg);

        hb::Metrics timing;
        hb::DriverCounters plain = hb::runMemDriver(cfg, 1000, nullptr);
        hb::DriverCounters timed = hb::runMemDriver(cfg, 1000, &timing);
        check(plain == timed, "mem driver counters differ when timed: " + key);
        check(plain.readsServed > 0 || hb::capExpected(cfg),
              "mem driver served no reads: " + key);
        if (cfg.mechanism != bh::MitigationType::kNone)
            check(timing["mitigation.commits"] > 0,
                  "mitigation wrapper saw no commit: " + key);
        if (cfg.breakHammer)
            check(timing["breakhammer.observes"] > 0,
                  "observer wrapper saw no action: " + key);

        hb::DriverCounters cache_plain =
            hb::runCacheDriver(cfg, plain.quotas, 5000, nullptr);
        hb::DriverCounters cache_timed =
            hb::runCacheDriver(cfg, plain.quotas, 5000, &timing);
        check(cache_plain == cache_timed,
              "cache driver counters differ when timed: " + key);

        bh::ExperimentResult record = bh::runExperiment(cfg);
        hb::Tracer tracer;
        tracer.enable(true);
        hb::ReplicaOutcome o = hb::replayOnReplica(cfg, record, tracer);
        check(o.matches, "replica differs from record (" + o.why + "): " +
                             key);
        check(tracer.total("sim.run") > 0.0, "no sim.run span: " + key);
        ++replicas;
    }
    std::printf("%-10s %zu points: drivers and replicas checked\n",
                name.c_str(), replicas);
}

} // namespace

int
main()
{
    for (const std::string &name : hb::workloadNames())
        testWorkload(name);
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
