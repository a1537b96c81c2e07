/**
 * @file
 * hostbench: resolves one workload grid through the library's public
 * entry points and reports host-time metrics.
 *
 *   hostbench setup  --workload W --seed N --dir D
 *       Set up only (store open, coordinator start, solo-IPC warm-up),
 *       print "setup_end <CLOCK_MONOTONIC s>" and exit.
 *   hostbench run    --workload W --seed N --seconds S --dir D
 *                    [--golden FILE] [--trace-out FILE]
 *       Untraced grid passes for about S seconds (at least three),
 *       scaled by the contention probe: end-to-end metrics.
 *       With --trace-out: one untraced and one traced pass plus the
 *       per-layer drivers; per-layer metrics and a Chrome trace file.
 *   hostbench golden --workload W --dir D --out FILE
 *       Write the per-point digests of seed 1 (the committed golden).
 *
 * Output lines: "metric <name> <value> <unit>", "failure <key> <why>",
 * "capped <key>", "attempted <n>", "failed <n>", "stamp <json>" and
 * "info <text>"; run.py turns them into the benchmark's result line.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "hostbench.h"
#include "sim/result_store.h"
#include "svc/coordinator.h"
#include "svc/frame.h"
#include "svc/protocol.h"
#include "svc/worker.h"

namespace fs = std::filesystem;

namespace hb {
namespace {

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 10.0;
    std::string dir;
    std::string golden;
    std::string traceOut;
    std::string out;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "hostbench: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: hostbench setup|run|golden --workload W ...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--dir")
            a.dir = v;
        else if (flag == "--golden")
            a.golden = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else if (flag == "--out")
            a.out = v;
        else
            die("unknown flag " + flag);
    }
    if (a.dir.empty())
        die("--dir is required");
    return a;
}

void
metric(const char *name, double value, const char *unit)
{
    std::printf("metric %s %.17g %s\n", name, value, unit);
}

/** A store (and, for the service workload, a started coordinator). */
struct Prepared
{
    std::unique_ptr<bh::ResultStore> store;
    std::unique_ptr<bh::svc::SweepCoordinator> coordinator;
};

Prepared
prepare(const Workload &w, const std::string &dir, Tracer &tracer)
{
    fs::remove_all(dir);
    Prepared p;
    std::string error;
    {
        Scope span(tracer, "store.open");
        p.store = std::make_unique<bh::ResultStore>(1);
        if (!p.store->open(dir, &error))
            die("store open: " + error);
    }
    if (w.service) {
        Scope span(tracer, "svc.coordinator_start");
        bh::svc::CoordinatorOptions opts;
        opts.port = 0;
        opts.leaseTimeoutMs = 120000;
        p.coordinator = std::make_unique<bh::svc::SweepCoordinator>(
            opts, p.store.get(), w.grid);
        if (!p.coordinator->start(&error))
            die("coordinator start: " + error);
    }
    return p;
}

void
warmSolo(const Workload &w, Tracer &tracer)
{
    for (const auto &[app, insts] : bh::soloDependencies(w.grid)) {
        Scope span(tracer, "sim.solo", app);
        bh::soloIpc(app, insts);
    }
}

struct PassResult
{
    double wall = 0.0;
    std::vector<double> pointSeconds;
    /** ContentionProbe::run() times, one after each point. */
    std::vector<double> probeSeconds;
    std::vector<PointCheck> checks;
    std::string exportBytes;
    std::size_t leasesExpired = 0;
    /** Records of this pass, valid while the pass's store lives. */
    std::vector<const bh::ExperimentResult *> records;
};

/** Serve the grid to one in-process worker; false on worker failure. */
bool
serveGrid(Prepared &p, std::string *error)
{
    std::string serve_error;
    bool served = false;
    std::thread serve(
        [&] { served = p.coordinator->serve(&serve_error); });
    bh::svc::WorkerOptions wopts;
    wopts.port = p.coordinator->port();
    wopts.jobs = kServiceJobs;
    wopts.name = "hostbench";
    bh::svc::SweepWorker worker(wopts);
    bool worked = worker.run(error);
    if (!worked)
        p.coordinator->requestStop();
    serve.join();
    if (!served && error->empty())
        *error = serve_error;
    return worked && served;
}

/**
 * One timed pass: resolve the grid, export it and check every point.
 * With @p probe, the probe runs after each point of a grid resolved in
 * this thread; its time is not part of the pass.
 */
PassResult
runPass(const Workload &w, Prepared &p, const Golden *golden,
        Tracer &tracer, ContentionProbe *probe = nullptr)
{
    PassResult r;
    double probe_total = 0.0;
    const std::size_t n = w.grid.size();
    std::vector<std::string> errors(n);
    r.records.assign(n, nullptr);
    Scope pass(tracer, "pass");
    double t0 = monoNow();
    if (!w.service) {
        for (std::size_t i = 0; i < n; ++i) {
            const bh::ExperimentConfig &cfg = w.grid[i];
            double tp = monoNow();
            {
                Scope span(tracer, "store.get", bh::experimentKey(cfg));
                try {
                    r.records[i] = &p.store->get(cfg);
                } catch (const std::exception &e) {
                    errors[i] = std::string("runExperiment threw: ") +
                                e.what();
                }
            }
            r.pointSeconds.push_back(monoNow() - tp);
            if (probe != nullptr) {
                double tq = monoNow();
                r.probeSeconds.push_back(probe->run());
                probe_total += monoNow() - tq;
            }
        }
    } else {
        std::string error;
        {
            Scope span(tracer, "svc.serve");
            if (!serveGrid(p, &error))
                std::printf("info service failed: %s\n", error.c_str());
        }
        r.leasesExpired = p.coordinator->metrics().leasesExpired;
        for (std::size_t i = 0; i < n; ++i)
            r.records[i] = p.store->lookup(w.grid[i]);
    }
    {
        Scope span(tracer, "store.toJson");
        r.exportBytes = p.store->toJson().dump();
    }
    {
        Scope span(tracer, "verify");
        for (std::size_t i = 0; i < n; ++i) {
            PointCheck c = checkPoint(w, w.grid[i], r.records[i], golden);
            if (!errors[i].empty()) {
                c.ok = false;
                c.why = errors[i];
            }
            r.checks.push_back(std::move(c));
        }
    }
    r.wall = monoNow() - t0 - probe_total;
    if (w.service)
        r.pointSeconds.push_back(r.wall / static_cast<double>(n));
    return r;
}

/** Timed passes a run makes at least, whatever --seconds says. */
constexpr unsigned kMinPasses = 3;

/** Failure bookkeeping shared by every pass of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::set<std::string> capped;
    std::vector<std::uint64_t> firstDigests;

    void
    fail(const std::string &key, const std::string &why)
    {
        ++failed;
        std::printf("failure %s %s\n", key.c_str(), why.c_str());
    }

    /** Count a pass; later passes must reproduce the first's digests. */
    void
    add(const Workload &w, const PassResult &r)
    {
        bool first = firstDigests.empty();
        for (std::size_t i = 0; i < r.checks.size(); ++i) {
            const PointCheck &c = r.checks[i];
            const std::string key = bh::experimentKey(w.grid[i]);
            ++attempted;
            if (first)
                firstDigests.push_back(c.digest);
            if (!c.ok)
                fail(key, c.why);
            else if (c.digest != firstDigests[i])
                fail(key, "record differs between passes");
            if (c.capped)
                capped.insert(key);
        }
    }
};

/**
 * Local ResultStore::prefetch of the grid with the service's thread
 * count; for the service workload its export must equal the service
 * export byte for byte. Returns the prefetch seconds.
 */
double
localPrefetch(const Workload &w, const std::string &dir,
              const std::string &service_export, Tally *tally)
{
    fs::remove_all(dir);
    bh::ResultStore local(kServiceJobs);
    std::string error;
    if (!local.open(dir, &error))
        die("store open: " + error);
    double t0 = monoNow();
    local.prefetch(w.grid);
    double seconds = monoNow() - t0;
    if (w.service && local.toJson().dump() != service_export)
        tally->fail(w.name, "service export differs from local prefetch");
    fs::remove_all(dir);
    return seconds;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

/** Machine and work stamp: host times compare across machines per inst. */
void
printStamp(const Workload &w, std::uint64_t seed,
           const std::vector<const bh::ExperimentResult *> &records)
{
    std::uint64_t insts = 0, cycles = 0;
    for (const bh::ExperimentResult *r : records) {
        if (r == nullptr)
            continue;
        for (const bh::CoreResult &c : r->raw.cores)
            insts += c.retired;
        cycles += r->raw.cycles;
    }
    bh::JsonValue s = bh::JsonValue::object();
    s.set("workload", w.name);
    s.set("seed", seed);
    s.set("points", static_cast<std::uint64_t>(w.grid.size()));
    s.set("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    s.set("cpu_model", cpuModel());
    s.set("compiler", HB_COMPILER);
    s.set("build_type", HB_BUILD_TYPE);
    s.set("sim.insts", insts);
    s.set("sim.cycles", cycles);
    std::printf("stamp %s\n", s.dump().c_str());
}

void
printTally(const Tally &t)
{
    for (const std::string &key : t.capped)
        std::printf("capped %s\n", key.c_str());
    std::printf("attempted %llu\n",
                static_cast<unsigned long long>(t.attempted));
    std::printf("failed %llu\n", static_cast<unsigned long long>(t.failed));
}

const Golden *
goldenFor(const Args &a, Golden *storage)
{
    if (a.seed != kGoldenSeed || a.golden.empty())
        return nullptr;
    if (!loadGolden(a.golden, storage))
        die("cannot read golden file " + a.golden);
    return storage;
}

int
setupMode(const Workload &w, const Args &a)
{
    Tracer off;
    Prepared p = prepare(w, a.dir + "/setup", off);
    warmSolo(w, off);
    std::printf("setup_end %.9f\n", monoNow());
    std::fflush(stdout);
    p = Prepared{};
    fs::remove_all(a.dir);
    return 0;
}

int
goldenMode(const Workload &w, const Args &a)
{
    if (a.seed != kGoldenSeed)
        die("golden digests are defined at seed 1 only");
    Tracer off;
    Prepared p = prepare(w, a.dir + "/golden", off);
    warmSolo(w, off);
    PassResult r = runPass(w, p, nullptr, off);
    Golden golden;
    for (std::size_t i = 0; i < w.grid.size(); ++i) {
        if (!r.checks[i].ok)
            die("cannot bless a failing point: " + r.checks[i].why);
        golden[bh::experimentKey(w.grid[i])] = r.checks[i].digest;
    }
    if (!writeGolden(a.out, golden))
        die("cannot write " + a.out);
    p = Prepared{};
    fs::remove_all(a.dir);
    return 0;
}

int
untracedRun(const Workload &w, const Args &a)
{
    Golden storage;
    const Golden *golden = goldenFor(a, &storage);
    Tracer off;
    Prepared p = prepare(w, a.dir + "/pass0", off);
    warmSolo(w, off);
    std::printf("setup_end %.9f\n", monoNow());

    Tally tally;
    // Other tenants of a shared host contend for its last-level cache
    // and memory and slow a pass by 10-100% for seconds to minutes at a
    // time. A pass resolved in this thread runs the contention probe
    // after every point and is scaled by kProbeReferenceSeconds over the
    // probe's median time in that pass: its times read as on a quiet
    // machine. Service passes wait on the worker's poll timeout, not on
    // memory, so they are reported as measured.
    ContentionProbe probe;
    ContentionProbe *pass_probe = w.service ? nullptr : &probe;

    // One untimed pass before timing: a process's first pass runs
    // markedly slower (fresh heap pages, cold predictors) than the rest
    // of a sweep. Service passes are bound by the worker's poll timeout,
    // not by cold state, so they skip it.
    const bool warm_up = !w.service;
    if (warm_up) {
        PassResult warm = runPass(w, p, golden, off, pass_probe);
        tally.add(w, warm);
        std::printf("info warm-up pass %.4f s (untimed)\n", warm.wall);
    }

    // Per point: its scaled time in every pass. A service pass is timed
    // as a whole, so its grid counts as one point of pass wall / size.
    std::vector<std::vector<double>> per_point(w.service ? 1 : w.grid.size());
    std::vector<double> walls, raw_walls, scales;
    std::string first_export;
    const double start = monoNow();
    for (unsigned k = 0;; ++k) {
        if (k > 0 || warm_up)
            p = prepare(w, a.dir + "/pass" + std::to_string(k + 1), off);
        PassResult r = runPass(w, p, golden, off, pass_probe);
        tally.add(w, r);
        double scale = r.probeSeconds.empty()
                           ? 1.0
                           : kProbeReferenceSeconds / median(r.probeSeconds);
        raw_walls.push_back(r.wall);
        scales.push_back(scale);
        walls.push_back(r.wall * scale);
        for (std::size_t i = 0; i < per_point.size(); ++i)
            per_point[i].push_back(r.pointSeconds[i] * scale);
        if (k == 0) {
            first_export = std::move(r.exportBytes);
            printStamp(w, a.seed, r.records);
        }
        double mean_wall = (monoNow() - start) / (k + 1);
        if (k + 1 >= kMinPasses &&
            monoNow() - start + 0.5 * mean_wall >= a.seconds)
            break;
    }
    p = Prepared{};
    if (w.service)
        localPrefetch(w, a.dir + "/local", first_export, &tally);

    // A point's time is its median over the passes, so a burst that
    // the probe missed moves no point; p50 and the tail are taken over
    // the grid's points, whatever the number of passes.
    std::vector<double> points;
    for (const std::vector<double> &xs : per_point)
        points.push_back(median(xs));
    double tail = tailPercentile(points.size());
    std::printf("info %zu passes, %zu points, tail = p%.4g; pass "
                "walls as measured (s):",
                walls.size(), points.size(), tail);
    for (double wall : raw_walls)
        std::printf(" %.4f", wall);
    std::printf("; contention scale:");
    for (double x : scales)
        std::printf(" %.3f", x);
    std::printf("\n");
    metric("wall_s", median(walls), "s");
    metric("point_ms_p50", median(points) * 1e3, "ms");
    metric("point_ms_tail", percentile(points, tail) * 1e3, "ms");
    metric("peak_rss_mb", peakRssMb(), "MB");
    metric("ok_frac",
           tally.attempted
               ? static_cast<double>(tally.attempted - tally.failed) /
                     static_cast<double>(tally.attempted)
               : 0.0,
           "ratio");
    printTally(tally);
    fs::remove_all(a.dir);
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nanoseconds per call; each timed interval includes one clock read. */
double
perCallNs(double seconds, double calls)
{
    return ratio(seconds * 1e9, calls);
}

int
tracedRun(const Workload &w, const Args &a)
{
    Golden storage;
    const Golden *golden = goldenFor(a, &storage);
    Tracer tracer;
    tracer.enable(true);
    Tally tally;

    Prepared p0 = prepare(w, a.dir + "/pass0", tracer);
    warmSolo(w, tracer);
    const double solo_s = tracer.total("sim.solo");

    // Tracing overhead: untraced and traced passes alternate (U T U T)
    // so neither side always runs first. The first traced pass's store
    // stays open: its records feed the layer drivers below.
    tracer.enable(false);
    if (!w.service) {
        PassResult warm = runPass(w, p0, golden, tracer); // As untracedRun.
        tally.add(w, warm);
        p0 = prepare(w, a.dir + "/warm", tracer);
    }
    PassResult plain = runPass(w, p0, golden, tracer);
    tally.add(w, plain);
    p0 = Prepared{};
    tracer.enable(true);
    Prepared p = prepare(w, a.dir + "/pass1", tracer);
    PassResult traced = runPass(w, p, golden, tracer);
    tally.add(w, traced);
    printStamp(w, a.seed, traced.records);
    double plain_s = plain.wall, traced_s = traced.wall;
    for (bool on : {false, true}) {
        tracer.enable(on);
        Prepared q = prepare(w, a.dir + (on ? "/pass3" : "/pass2"), tracer);
        PassResult r = runPass(w, q, golden, tracer);
        tally.add(w, r);
        (on ? traced_s : plain_s) += r.wall;
    }
    tracer.enable(true);

    Metrics m;
    const std::size_t n = w.grid.size();
    std::vector<std::pair<const bh::ExperimentConfig *,
                          const bh::ExperimentResult *>>
        points;
    for (std::size_t i = 0; i < n; ++i)
        if (traced.records[i] != nullptr)
            points.emplace_back(&w.grid[i], traced.records[i]);

    // sim + common: System replicas of every point.
    double rate_s = 0.0, replica_insts = 0.0, replica_cycles = 0.0;
    std::vector<double> snapshot_bytes;
    {
        Scope span(tracer, "driver.sim");
        for (const auto &[cfg, rec] : points) {
            ReplicaOutcome o = replayOnReplica(*cfg, *rec, tracer);
            if (!o.matches)
                tally.fail(bh::experimentKey(*cfg), o.why);
            rate_s += o.rateSeconds;
            replica_insts += static_cast<double>(o.instructions);
            replica_cycles += static_cast<double>(o.cycles);
            snapshot_bytes.push_back(static_cast<double>(o.snapshotBytes));
        }
    }

    // mem + mitigation + breakhammer, then cache under the quotas the
    // memory driver's BreakHammer left behind.
    {
        Scope span(tracer, "driver.mem");
        const std::uint64_t reads =
            std::max<std::uint64_t>(2000, 240000 / n);
        const std::uint64_t accesses =
            std::max<std::uint64_t>(20000, 1200000 / n);
        for (const auto &[cfg, rec] : points) {
            DriverCounters c;
            {
                Scope mem(tracer, "driver.mem.point",
                          bh::experimentKey(*cfg));
                c = runMemDriver(*cfg, reads, &m);
            }
            Scope cache(tracer, "driver.cache.point",
                        bh::experimentKey(*cfg));
            runCacheDriver(*cfg, c.quotas, accesses, &m);
        }
    }
    {
        Scope span(tracer, "driver.trace");
        runTraceDriver(w, &m);
    }

    // stats: the record codec.
    std::vector<double> enc, dec, bytes;
    std::vector<std::string> payloads;
    {
        Scope span(tracer, "driver.stats");
        for (const auto &[cfg, rec] : points) {
            double t0 = monoNow();
            std::string text = bh::experimentResultToJson(*cfg, *rec).dump();
            enc.push_back(monoNow() - t0);
            t0 = monoNow();
            bh::JsonValue v;
            bh::ExperimentResult back;
            bool ok = bh::JsonValue::parse(text, &v) &&
                      bh::experimentResultFromJson(v, &back);
            dec.push_back(monoNow() - t0);
            if (!ok)
                tally.fail(bh::experimentKey(*cfg), "stats decode failed");
            bytes.push_back(static_cast<double>(text.size()));
            payloads.push_back(std::move(text));
        }
    }

    // svc: framing, ingest, and service vs local prefetch.
    std::vector<double> frame, ingest;
    double service_s = traced.wall;
    std::size_t leases_expired = traced.leasesExpired;
    double local_s = 0.0;
    {
        Scope span(tracer, "driver.svc");
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::string msg = bh::svc::makeResult(
                                  bh::experimentKey(*points[i].first),
                                  bh::JsonValue::parseOrDie(payloads[i]))
                                  .dump();
            double t0 = monoNow();
            std::string wire = bh::svc::encodeFrame(msg);
            bh::svc::FrameReader reader;
            reader.feed(wire.data(), wire.size());
            std::string back;
            bool ok = reader.next(&back);
            frame.push_back(monoNow() - t0);
            if (!ok || back != msg)
                tally.fail(bh::experimentKey(*points[i].first),
                           "frame round trip failed");
        }
        {
            fs::remove_all(a.dir + "/ingest");
            bh::ResultStore sink(1);
            std::string error;
            if (!sink.open(a.dir + "/ingest", &error))
                die("store open: " + error);
            for (std::size_t i = 0; i < points.size(); ++i) {
                bh::JsonValue v = bh::JsonValue::parseOrDie(payloads[i]);
                double t0 = monoNow();
                bool ok = sink.ingest(*points[i].first, v, &error);
                ingest.push_back(monoNow() - t0);
                if (!ok)
                    tally.fail(bh::experimentKey(*points[i].first),
                               "ingest failed: " + error);
            }
        }
        if (!w.service) {
            Workload served = w;
            served.service = true;
            Prepared sp = prepare(served, a.dir + "/service", tracer);
            PassResult r = runPass(served, sp, golden, tracer);
            tally.add(served, r);
            service_s = r.wall;
            leases_expired = r.leasesExpired;
        }
        Scope local(tracer, "svc.local_prefetch");
        local_s = localPrefetch(w, a.dir + "/local", traced.exportBytes,
                                &tally);
    }

    // Exact work counts from the records.
    double insts = 0, cycles = 0, demand = 0, preventive = 0, marks = 0,
           rejections = 0, stalls = 0, capped = 0;
    for (const auto &[cfg, rec] : points) {
        for (const bh::CoreResult &c : rec->raw.cores) {
            insts += static_cast<double>(c.retired);
            stalls += static_cast<double>(c.rejectStalls);
        }
        cycles += static_cast<double>(rec->raw.cycles);
        demand += static_cast<double>(rec->raw.demandActs);
        preventive += static_cast<double>(rec->raw.preventiveActions);
        marks += static_cast<double>(rec->raw.suspectMarks);
        rejections += static_cast<double>(rec->raw.quotaRejections);
        capped += rec->raw.hitCycleCap ? 1.0 : 0.0;
    }

    std::printf("info per-call times include one clock read pair, "
                "%.1f ns here\n",
                timerOverhead() * 1e9);
    metric("trace_overhead_frac", ratio(traced_s, plain_s) - 1.0, "ratio");
    metric("sim.solo_s", solo_s, "s");
    metric("sim.construct_ms", median(tracer.durations("sim.construct")) * 1e3,
           "ms");
    {
        std::vector<double> per_point;
        for (const auto &[key, seconds] : tracer.totalsByKey("sim.run"))
            per_point.push_back(seconds);
        metric("sim.run_ms", median(per_point) * 1e3, "ms");
    }
    metric("sim.ns_per_inst", ratio(rate_s * 1e9, replica_insts), "ns");
    metric("sim.ns_per_kcycle", ratio(rate_s * 1e9, replica_cycles / 1e3),
           "ns");
    metric("sim.insts", insts, "count");
    metric("sim.cycles", cycles, "count");
    metric("sim.demand_acts", demand, "count");
    metric("sim.preventive_actions", preventive, "count");
    metric("sim.suspect_marks", marks, "count");
    metric("sim.quota_rejections", rejections, "count");
    metric("sim.reject_stalls", stalls, "count");
    metric("sim.capped_points", capped, "count");
    metric("snapshot.save_ms", median(tracer.durations("snapshot.save")) * 1e3,
           "ms");
    metric("snapshot.restore_ms",
           median(tracer.durations("snapshot.restore")) * 1e3, "ms");
    metric("snapshot.bytes", median(snapshot_bytes), "bytes");
    metric("sim.fast_forward_ms",
           median(tracer.durations("sim.fast_forward")) * 1e3, "ms");
    metric("mem.tick_ns",
           perCallNs(m["mem.tick_s"], m["mem.ticks"]), "ns");
    metric("mem.next_event_ns",
           perCallNs(m["mem.next_s"], m["mem.next_calls"]),
           "ns");
    metric("mem.reads_per_ms", ratio(m["mem.reads"], m["mem.loop_s"] * 1e3),
           "1/ms");
    metric("mem.useful_tick_ratio", ratio(m["mem.useful_ticks"], m["mem.ticks"]),
           "ratio");
    metric("mitigation.commit_ns",
           perCallNs(m["mitigation.commit_s"], m["mitigation.commits"]),
           "ns");
    metric("mitigation.probe_ns",
           perCallNs(m["mitigation.probe_s"], m["mitigation.probes"]),
           "ns");
    metric("mitigation.probes_per_act",
           ratio(m["mitigation.probes"], m["mitigation.commits"]), "ratio");
    metric("mitigation.preventive_per_kact",
           ratio(m["mitigation.preventive"] * 1e3, m["mitigation.demand_acts"]),
           "count");
    metric("breakhammer.observe_ns",
           perCallNs(m["breakhammer.observe_s"], m["breakhammer.observes"]),
           "ns");
    metric("breakhammer.roll_ns",
           perCallNs(m["breakhammer.roll_s"], m["breakhammer.rolls"]),
           "ns");
    metric("cache.access_ns",
           perCallNs(m["cache.access_s"], m["cache.accesses"]),
           "ns");
    metric("cache.hit_ratio", ratio(m["cache.hits"], m["cache.accesses"]),
           "ratio");
    metric("cache.quota_reject_ratio",
           ratio(m["cache.quota_rejects"], m["cache.alloc_attempts"]), "ratio");
    metric("trace.benign_next_ns",
           ratio(m["trace.benign_s"] * 1e9, m["trace.benign_calls"]), "ns");
    metric("trace.attacker_next_ns",
           ratio(m["trace.attacker_s"] * 1e9, m["trace.attacker_calls"]), "ns");
    metric("stats.encode_us", median(enc) * 1e6, "us");
    metric("stats.decode_us", median(dec) * 1e6, "us");
    metric("stats.record_bytes", median(bytes), "bytes");
    metric("svc.units_per_s", ratio(static_cast<double>(n), service_s), "1/s");
    metric("svc.efficiency", ratio(local_s, service_s), "ratio");
    metric("svc.frame_us", median(frame) * 1e6, "us");
    metric("svc.ingest_us", median(ingest) * 1e6, "us");
    metric("svc.leases_expired", static_cast<double>(leases_expired), "count");

    printTally(tally);
    p = Prepared{};
    if (!tracer.writeChromeTrace(a.traceOut))
        die("cannot write " + a.traceOut);
    std::printf("info %zu spans written to %s\n", tracer.size(),
                a.traceOut.c_str());
    fs::remove_all(a.dir);
    return 0;
}

} // namespace
} // namespace hb

int
main(int argc, char **argv)
{
    hb::Args a = hb::parseArgs(argc, argv);
    hb::Workload w;
    if (!hb::makeWorkload(a.workload, a.seed, &w))
        hb::die("unknown workload '" + a.workload + "'");
    if (a.mode == "setup")
        return hb::setupMode(w, a);
    if (a.mode == "golden")
        return hb::goldenMode(w, a);
    if (a.mode == "run")
        return a.traceOut.empty() ? hb::untracedRun(w, a)
                                  : hb::tracedRun(w, a);
    hb::die("unknown mode '" + a.mode + "'");
}
