/**
 * @file
 * Host-time benchmark of the simulator: workloads, output checks, the
 * in-memory span tracer and the per-layer drivers.
 *
 * Everything here drives the library through its public headers; the
 * benchmark never reaches into src/ internals. End-to-end numbers come
 * from untraced grid passes; per-layer numbers come from a separate
 * traced run that wraps the same public calls in spans and runs one
 * driver per module on the workload's own traffic.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace hb {

/** CLOCK_MONOTONIC in seconds (the clock Python's time.monotonic reads). */
double monoNow();

/**
 * Cost of one timed empty interval (two monoNow() reads), calibrated
 * once per process; per-call timings subtract it.
 */
double timerOverhead();

/**
 * A fixed kernel that the untimed gaps between grid points run:
 * pseudo-random, data-dependent updates scattered over an 8 MiB table.
 * Like the simulator it is bound by cache misses and mispredicted
 * branches, so when other tenants of a shared host slow the simulator
 * (for seconds to minutes at a time) they slow this kernel by about as
 * much; its time measures how contended the machine was while a pass
 * ran. It does no simulator work and no change to src/ moves it.
 */
class ContentionProbe
{
  public:
    ContentionProbe();
    /** One timed run of a fixed number of updates, in seconds. */
    double run();

  private:
    std::vector<std::uint32_t> cells_;
    std::uint64_t state_ = 88172645463325252ull;
};

/**
 * The lowest per-pass median ContentionProbe::run() time seen on the
 * reference machine (4-core Intel Xeon VM, GCC 12.2, Release) between
 * grid points. A pass whose probes ran slower is scaled down by that
 * ratio, so its times read as on the machine at its quietest.
 */
constexpr double kProbeReferenceSeconds = 0.8e-3;

/** The grid seed whose per-point digests are committed as golden. */
constexpr std::uint64_t kGoldenSeed = 1;

/** Compute threads of the service worker and of the local prefetch. */
constexpr unsigned kServiceJobs = 2;

/** One benchmark workload: a named grid and how it is resolved. */
struct Workload
{
    std::string name;
    std::vector<bh::ExperimentConfig> grid;
    /** Resolve through SweepCoordinator + SweepWorker, not get(). */
    bool service = false;
    /** Run the attack liveness checks on every point. */
    bool liveness = false;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build @p name's grid for @p seed; false for an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload *out);

/** Only BlockHammer at N_RH <= 64 may hit the cycle cap. */
bool capExpected(const bh::ExperimentConfig &config);

/** 64-bit FNV-1a. */
std::uint64_t fnv1a(const std::string &bytes);

/** Canonical record bytes: experimentResultToJson(...).dump(). */
std::string recordBytes(const bh::ExperimentConfig &config,
                        const bh::ExperimentResult &result);

/** Committed per-point digests: experimentKey -> FNV-1a of the record. */
using Golden = std::map<std::string, std::uint64_t>;

/** Load a golden file (one "<hex digest>\t<key>" line per point). */
bool loadGolden(const std::string &path, Golden *out);

/** Write @p golden in loadGolden()'s format. */
bool writeGolden(const std::string &path, const Golden &golden);

/** Outcome of checking one resolved point. */
struct PointCheck
{
    bool ok = true;
    std::string why;     ///< First failed check, empty when ok.
    bool capped = false; ///< The record hit the cycle cap.
    std::uint64_t digest = 0;
};

/**
 * Every output check of one point: a record exists, the JSON round
 * trip (toJson -> parse -> fromJson -> re-dump) is byte-identical, the
 * digest matches @p golden when given, attack liveness when
 * @p workload asks for it, and a cycle cap only where capExpected().
 */
PointCheck checkPoint(const Workload &workload,
                      const bh::ExperimentConfig &config,
                      const bh::ExperimentResult *result,
                      const Golden *golden);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** Linear-interpolated percentile @p p (0..100) of @p xs. */
double percentile(std::vector<double> xs, double p);

/**
 * The highest percentile with at least ten of @p samples beyond it
 * (p50 when there are fewer than twenty-one samples).
 */
double tailPercentile(std::size_t samples);

/**
 * In-memory span recorder. Spans carry name, start, end, parent span
 * and the experiment key of the point they belong to; they are kept in
 * memory and written once, as Chrome Trace Event JSON, at the end.
 */
class Tracer
{
  public:
    /** Recording is off until enable(); begin/end are then no-ops. */
    void enable(bool on) { enabled_ = on; }

    /** Open a span (child of the innermost open one); -1 when off. */
    int begin(const char *name, const std::string &key = {});
    /** Close span @p id (must be the innermost open one). */
    void end(int id);

    /** Total duration of every span named @p name, in seconds. */
    double total(const std::string &name) const;
    /** Durations of every span named @p name, in seconds. */
    std::vector<double> durations(const std::string &name) const;
    /** Summed durations of the spans named @p name, per point key. */
    std::map<std::string, double> totalsByKey(const std::string &name) const;

    /** Write all spans as Chrome Trace Event JSON (opens in Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t size() const { return spans.size(); }

  private:
    struct Span
    {
        std::string name;
        std::string key;
        double start = 0.0;
        double end = -1.0;
        int parent = -1;
    };
    bool enabled_ = false;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, const std::string &key = {})
        : tracer_(tracer), id_(tracer.begin(name, key))
    {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Per-layer metric values, by BENCHMARK.json name. */
using Metrics = std::map<std::string, double>;

/** Counters a layer driver produces; compared with and without timing. */
struct DriverCounters
{
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t demandActs = 0;
    std::uint64_t preventiveActions = 0;
    std::uint64_t suspectMarks = 0;
    std::vector<unsigned> quotas;
    std::uint64_t llcHits = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t quotaRejects = 0;
    std::uint64_t allocAttempts = 0;

    bool operator==(const DriverCounters &o) const = default;
};

/**
 * Memory-system driver of one point: one MemoryController per channel
 * fed by the point's BenignTrace/AttackerTrace streams, an MshrFile
 * holding each thread's outstanding reads under BreakHammer's quotas,
 * the point's mitigation and BreakHammer attached, and the clock
 * advanced by nextEventCycle. With @p metrics non-null the mitigation
 * and observer are wrapped in forwarding timers and every public call
 * is timed (accumulated into @p metrics); with null nothing is wrapped
 * or timed, which is what the instrument test compares against.
 */
DriverCounters runMemDriver(const bh::ExperimentConfig &config,
                            std::uint64_t reads_budget, Metrics *metrics);

/**
 * Cache driver of one point: Llc + MshrFile fed by the point's traces,
 * with per-thread quotas taken from @p quotas (BreakHammer's, as the
 * memory driver left them). Times Llc::access and Llc::allocate when
 * @p metrics is set.
 */
DriverCounters runCacheDriver(const bh::ExperimentConfig &config,
                              const std::vector<unsigned> &quotas,
                              std::uint64_t accesses, Metrics *metrics);

/**
 * Trace driver: 20,000 next() calls on every trace of each distinct mix
 * of @p workload, accumulated as trace.benign_* / trace.attacker_*.
 * Benign-only grids time the default AttackerConfig stream instead.
 */
void runTraceDriver(const Workload &workload, Metrics *metrics);

/** System replica of a resolved point's SystemConfig. */
bh::SystemConfig replicaSystemConfig(const bh::ExperimentConfig &resolved);

/** Outcome of replaying one point on a System replica. */
struct ReplicaOutcome
{
    bool matches = false;
    std::string why;
    /** Snapshot blob size (sampled points: mean over windows). */
    std::uint64_t snapshotBytes = 0;
    /** Run time whose work is counted below (sampled points: the
     *  warm-up and the measured phases, not the re-warm phases). */
    double rateSeconds = 0.0;
    std::uint64_t instructions = 0; ///< Retired, summed over cores.
    std::uint64_t cycles = 0;       ///< Simulated cycles run.
};

/**
 * Re-simulate @p config through System's public calls and compare with
 * @p record: an exact point runs constructor + run() and must reproduce
 * the record's cycles and preventive actions; a sampled point drives the
 * same window schedule (run, fastForward, snapshotBlob,
 * restoreSnapshotBlob, runDelta) and must reproduce its window count and
 * preventive-action estimate. Exact points additionally time a snapshot
 * round trip and a fast-forward of the finished System. Every phase is
 * recorded as a span in @p tracer, keyed by the point.
 */
ReplicaOutcome replayOnReplica(const bh::ExperimentConfig &config,
                               const bh::ExperimentResult &record,
                               Tracer &tracer);

} // namespace hb
