/**
 * @file
 * Per-layer drivers: each exercises one module through its public
 * functions with the traffic of one workload point, and the System
 * replica that times construction, run, snapshot and fast-forward.
 */
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <set>

#include "breakhammer/breakhammer.h"
#include "cache/llc.h"
#include "cache/mshr.h"
#include "hostbench.h"
#include "mem/controller.h"
#include "mitigation/blockhammer.h"
#include "mitigation/factory.h"
#include "sim/system.h"
#include "trace/attacker.h"
#include "trace/benign.h"

namespace hb {

using bh::Cycle;
using bh::ThreadId;

namespace {

/** Seconds spent inside wrapped calls, split by kind. */
struct CallTimes
{
    double commit = 0.0, probe = 0.0, observe = 0.0, otherInside = 0.0;
    std::uint64_t commits = 0, probes = 0, observes = 0;
    /** Set while the driver is inside MemoryController::tick. */
    bool inTick = false;
    /** Wrapped time that elapsed inside tick (excluded from self time). */
    double insideTick = 0.0;
    /** Wrapped calls made inside tick; each also cost one clock read. */
    std::uint64_t callsInTick = 0;

    void
    add(double *slot, double dt)
    {
        *slot += dt;
        if (inTick) {
            insideTick += dt;
            ++callsInTick;
        }
    }
};

/** Forwarding timer around a createMitigation() instance. */
class TimedMitigation : public bh::IMitigation
{
  public:
    TimedMitigation(bh::IMitigation *inner, CallTimes *times)
        : inner_(inner), times_(times)
    {}

    const char *name() const override { return inner_->name(); }

    void
    commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
              Cycle now) override
    {
        double t0 = monoNow();
        inner_->commitAct(flat_bank, row, thread, now);
        times_->add(&times_->commit, monoNow() - t0);
        ++times_->commits;
    }

    void
    onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                      unsigned sweep_rows, Cycle now) override
    {
        double t0 = monoNow();
        inner_->onPeriodicRefresh(rank, sweep_start, sweep_rows, now);
        times_->add(&times_->otherInside, monoNow() - t0);
    }

    Cycle
    probeActReleaseCycle(unsigned flat_bank, unsigned row, ThreadId thread,
                         Cycle now) const override
    {
        double t0 = monoNow();
        Cycle c = inner_->probeActReleaseCycle(flat_bank, row, thread, now);
        times_->add(&times_->probe, monoNow() - t0);
        ++times_->probes;
        return c;
    }

    void
    advanceTo(Cycle now) override
    {
        double t0 = monoNow();
        inner_->advanceTo(now);
        times_->add(&times_->otherInside, monoNow() - t0);
    }

    Cycle
    nextTimedEventCycle(Cycle now) const override
    {
        return inner_->nextTimedEventCycle(now);
    }

    bool delaysActs() const override { return inner_->delaysActs(); }

  private:
    bh::IMitigation *inner_;
    CallTimes *times_;
};

/** Forwarding timer around BreakHammer's action-observer interface. */
class TimedObserver : public bh::IActionObserver
{
  public:
    TimedObserver(bh::IActionObserver *inner, CallTimes *times)
        : inner_(inner), times_(times)
    {}

    void
    onDemandActivate(ThreadId thread, unsigned flat_bank,
                     Cycle now) override
    {
        double t0 = monoNow();
        inner_->onDemandActivate(thread, flat_bank, now);
        times_->add(&times_->observe, monoNow() - t0);
        ++times_->observes;
    }

    void
    onPreventiveAction(double weight, Cycle now) override
    {
        double t0 = monoNow();
        inner_->onPreventiveAction(weight, now);
        times_->add(&times_->observe, monoNow() - t0);
        ++times_->observes;
    }

    void
    onDirectScore(ThreadId thread, double amount, Cycle now) override
    {
        double t0 = monoNow();
        inner_->onDirectScore(thread, amount, now);
        times_->add(&times_->otherInside, monoNow() - t0);
    }

  private:
    bh::IActionObserver *inner_;
    CallTimes *times_;
};

/** The point's trace streams, built exactly as System builds them. */
struct Traces
{
    std::vector<std::unique_ptr<bh::TraceSource>> sources;
    std::vector<bool> benign;
};

Traces
makeTraces(const bh::SystemConfig &sys,
           const std::vector<bh::WorkloadSlot> &slots,
           const bh::AddressMap &mapper)
{
    Traces t;
    unsigned region = sys.spec.org.rowsPerBank / (sys.numCores * 2);
    for (unsigned i = 0; i < sys.numCores; ++i) {
        const bh::WorkloadSlot &slot = slots[i];
        std::uint64_t seed = sys.seed * 0x10001 + i * 0x9e3779b9;
        if (slot.kind == bh::WorkloadSlot::Kind::kBenign) {
            t.sources.push_back(std::make_unique<bh::BenignTrace>(
                bh::findApp(slot.appName), mapper, i * region, region,
                seed));
            t.benign.push_back(true);
        } else {
            bh::AttackerConfig atk = slot.attacker;
            if (atk.rowBase == 0)
                atk.rowBase = i * region + 16;
            t.sources.push_back(
                std::make_unique<bh::AttackerTrace>(atk, mapper, seed));
            t.benign.push_back(false);
        }
    }
    return t;
}

bh::Addr
lineOf(bh::Addr addr)
{
    return addr & ~static_cast<bh::Addr>(bh::kCacheLineBytes - 1);
}

void
accumulate(Metrics *m, const char *name, double v)
{
    if (m != nullptr)
        (*m)[name] += v;
}

} // namespace

bh::SystemConfig
replicaSystemConfig(const bh::ExperimentConfig &cfg)
{
    bh::SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    sys.spec = bh::DramSpec::ddr5();
    bh::applyTimingSideEffects(cfg.mechanism, cfg.nRh, &sys.spec);
    if (cfg.channels)
        sys.spec.org.channels = cfg.channels;
    if (cfg.ranks)
        sys.spec.org.ranks = cfg.ranks;
    sys.mitigation = cfg.mechanism;
    sys.nRh = cfg.nRh;
    sys.breakHammer = cfg.breakHammer;
    sys.bh = cfg.bh;
    sys.enableOracle = cfg.oracle;
    sys.bluntThrottle = cfg.bluntThrottle;
    sys.seed = cfg.seed;
    return sys;
}

DriverCounters
runMemDriver(const bh::ExperimentConfig &cfg, std::uint64_t reads_budget,
             Metrics *metrics)
{
    const bool timed = metrics != nullptr;
    bh::SystemConfig sys = replicaSystemConfig(cfg);
    bh::AddressMap mapper(sys.spec.org, 4, sys.interleave);
    const unsigned threads = sys.numCores;
    const unsigned channels = sys.spec.org.channels;

    bh::MshrFile mshr(sys.mshrEntries, threads);
    std::unique_ptr<bh::BreakHammer> breakhammer;
    if (sys.breakHammer)
        breakhammer =
            std::make_unique<bh::BreakHammer>(threads, sys.bh, &mshr);

    CallTimes times;
    TimedObserver timed_observer(breakhammer.get(), &times);
    std::vector<std::unique_ptr<bh::MemoryController>> mcs;
    std::vector<std::unique_ptr<bh::IMitigation>> mitigations;
    std::vector<std::unique_ptr<TimedMitigation>> wrappers;
    for (unsigned ch = 0; ch < channels; ++ch) {
        mcs.push_back(std::make_unique<bh::MemoryController>(
            sys.spec, mapper, sys.mc, ch));
        bh::MemoryController *mc = mcs.back().get();
        mitigations.push_back(bh::createMitigation(
            sys.mitigation, sys.nRh, sys.spec, threads));
        bh::IMitigation *mit = mitigations.back().get();
        if (mit != nullptr) {
            if (auto *bhm = dynamic_cast<bh::BlockHammer *>(mit))
                bhm->setThrottleTarget(&mshr);
            if (timed) {
                wrappers.push_back(
                    std::make_unique<TimedMitigation>(mit, &times));
                mc->setMitigation(wrappers.back().get());
                mit->setHost(mc); // The inner instance acts on the host.
            } else {
                mc->setMitigation(mit);
            }
        }
        if (breakhammer)
            mc->setObserver(timed ? static_cast<bh::IActionObserver *>(
                                        &timed_observer)
                                  : breakhammer.get());
        mc->onReadComplete = [&mshr](const bh::Request &req, Cycle) {
            std::vector<bh::MshrWaiter> waiters;
            mshr.release(req.token, &waiters);
        };
    }

    Traces traces = makeTraces(sys, cfg.mix.slots, mapper);
    std::vector<std::optional<bh::TraceRecord>> pending(threads);
    std::uint64_t next_key = 1;
    const Cycle cap = cfg.instructions * 150;

    double tick_s = 0.0, next_s = 0.0, roll_s = 0.0;
    std::uint64_t ticks = 0, useful = 0, next_calls = 0, rolls = 0;
    auto served = [&mcs] {
        std::uint64_t n = 0;
        for (const auto &mc : mcs)
            n += mc->readsServed();
        return n;
    };

    double loop_t0 = timed ? monoNow() : 0.0;
    Cycle now = 0;
    while (served() < reads_budget && now < cap) {
        // Offer each thread's next record; a thread stays blocked on
        // its record until the MSHR quota or the queue has room.
        bool injected = false;
        for (ThreadId t = 0; t < threads; ++t) {
            if (!pending[t])
                pending[t] = traces.sources[t]->next();
            const bh::TraceRecord &rec = *pending[t];
            bh::Addr addr = lineOf(rec.addr);
            bh::MemoryController &mc =
                *mcs[channels == 1 ? 0 : mapper.decode(addr).channel];
            bh::Request req;
            req.addr = addr;
            req.thread = t;
            req.uncached = rec.uncached;
            if (rec.isWrite) {
                if (!mc.canEnqueueWrite())
                    continue;
                req.type = bh::Request::Type::kWrite;
                mc.enqueueWrite(req, now);
            } else {
                if (!mshr.canAllocate(t) || !mc.canEnqueueRead())
                    continue;
                req.type = bh::Request::Type::kRead;
                req.token = (1ull << 62) + next_key++;
                mshr.allocate(req.token, t, false);
                mc.enqueueRead(req, now);
            }
            pending[t].reset();
            injected = true;
        }

        for (auto &mc : mcs) {
            std::uint64_t before[6] = {
                mc->readsServed(),       mc->writesServed(),
                mc->demandActs(),        mc->preventiveActions(),
                mc->readQueueDepth(),    mc->writeQueueDepth()};
            if (timed) {
                times.inTick = true;
                double inside0 = times.insideTick;
                std::uint64_t calls0 = times.callsInTick;
                double t0 = monoNow();
                mc->tick(now);
                double dt = monoNow() - t0;
                times.inTick = false;
                // Self time: minus the wrapped calls and the clock reads
                // their timers added.
                tick_s += dt - (times.insideTick - inside0) -
                          static_cast<double>(times.callsInTick - calls0) *
                              timerOverhead() / 2;
            } else {
                mc->tick(now);
            }
            ++ticks;
            std::uint64_t after[6] = {
                mc->readsServed(),       mc->writesServed(),
                mc->demandActs(),        mc->preventiveActions(),
                mc->readQueueDepth(),    mc->writeQueueDepth()};
            if (!std::equal(before, before + 6, after))
                ++useful;
        }
        if (breakhammer) {
            double t0 = timed ? monoNow() : 0.0;
            breakhammer->rollWindows(now);
            if (timed)
                roll_s += monoNow() - t0;
            ++rolls;
        }

        Cycle next = now + 1;
        if (!injected) {
            next = bh::kNeverCycle;
            for (auto &mc : mcs) {
                double t0 = timed ? monoNow() : 0.0;
                next = std::min(next, mc->nextEventCycle(now));
                if (timed)
                    next_s += monoNow() - t0;
                ++next_calls;
            }
            if (breakhammer)
                next = std::min(next, breakhammer->nextWindowBoundary());
            next = std::max(next, now + 1);
        }
        now = next;
    }
    double loop_s = timed ? monoNow() - loop_t0 : 0.0;

    DriverCounters c;
    for (const auto &mc : mcs) {
        c.readsServed += mc->readsServed();
        c.writesServed += mc->writesServed();
        c.demandActs += mc->demandActs();
        c.preventiveActions += mc->preventiveActions();
    }
    if (breakhammer) {
        c.suspectMarks = breakhammer->suspectMarks();
        for (ThreadId t = 0; t < threads; ++t)
            c.quotas.push_back(breakhammer->quota(t));
    }

    accumulate(metrics, "mem.tick_s", tick_s);
    accumulate(metrics, "mem.ticks", static_cast<double>(ticks));
    accumulate(metrics, "mem.useful_ticks", static_cast<double>(useful));
    accumulate(metrics, "mem.next_s", next_s);
    accumulate(metrics, "mem.next_calls", static_cast<double>(next_calls));
    accumulate(metrics, "mem.loop_s", loop_s);
    accumulate(metrics, "mem.reads", static_cast<double>(c.readsServed));
    accumulate(metrics, "mitigation.commit_s", times.commit);
    accumulate(metrics, "mitigation.commits",
               static_cast<double>(times.commits));
    accumulate(metrics, "mitigation.probe_s", times.probe);
    accumulate(metrics, "mitigation.probes",
               static_cast<double>(times.probes));
    accumulate(metrics, "mitigation.demand_acts",
               static_cast<double>(c.demandActs));
    accumulate(metrics, "mitigation.preventive",
               static_cast<double>(c.preventiveActions));
    accumulate(metrics, "breakhammer.observe_s", times.observe);
    accumulate(metrics, "breakhammer.observes",
               static_cast<double>(times.observes));
    accumulate(metrics, "breakhammer.roll_s", roll_s);
    accumulate(metrics, "breakhammer.rolls", static_cast<double>(rolls));
    return c;
}

DriverCounters
runCacheDriver(const bh::ExperimentConfig &cfg,
               const std::vector<unsigned> &quotas, std::uint64_t accesses,
               Metrics *metrics)
{
    const bool timed = metrics != nullptr;
    bh::SystemConfig sys = replicaSystemConfig(cfg);
    bh::AddressMap mapper(sys.spec.org, 4, sys.interleave);
    const unsigned threads = sys.numCores;
    bh::Llc llc(sys.llc);
    bh::MshrFile mshr(sys.mshrEntries, threads);
    for (ThreadId t = 0; t < threads && t < quotas.size(); ++t)
        mshr.setQuota(t, quotas[t]);

    Traces traces = makeTraces(sys, cfg.mix.slots, mapper);
    // Misses retire in order a fixed number of accesses after they
    // allocate, which keeps MSHR occupancy (and so quota pressure)
    // a function of the access stream alone.
    constexpr std::uint64_t kMissLatency = 48;
    std::deque<std::pair<std::uint64_t, bh::Addr>> inflight;
    std::uint64_t next_key = 1;
    double access_s = 0.0;
    DriverCounters c;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        while (!inflight.empty() && i - inflight.front().first >= kMissLatency) {
            std::vector<bh::MshrWaiter> waiters;
            mshr.release(inflight.front().second, &waiters);
            inflight.pop_front();
        }
        ThreadId t = static_cast<ThreadId>(i % threads);
        bh::TraceRecord rec = traces.sources[t]->next();
        bh::Addr line = lineOf(rec.addr);
        if (!rec.uncached) {
            ++c.llcAccesses;
            double t0 = timed ? monoNow() : 0.0;
            bool hit = llc.access(line, rec.isWrite);
            if (timed)
                access_s += monoNow() - t0;
            if (hit) {
                ++c.llcHits;
                continue;
            }
            if (mshr.has(line)) {
                mshr.merge(line, bh::MshrWaiter{t, i, !rec.isWrite},
                           rec.isWrite);
                continue;
            }
        }
        ++c.allocAttempts;
        if (!mshr.canAllocate(t)) {
            if (mshr.totalInflight() < mshr.fullQuota())
                ++c.quotaRejects;
            continue;
        }
        bh::Addr key = line;
        if (rec.uncached) {
            key = (1ull << 63) + next_key++;
        } else {
            bh::Llc::Victim victim;
            double t0 = timed ? monoNow() : 0.0;
            llc.allocate(line, rec.isWrite, &victim);
            if (timed)
                access_s += monoNow() - t0;
        }
        mshr.allocate(key, t, rec.isWrite);
        inflight.emplace_back(i, key);
    }
    accumulate(metrics, "cache.access_s", access_s);
    accumulate(metrics, "cache.accesses",
               static_cast<double>(c.llcAccesses));
    accumulate(metrics, "cache.hits", static_cast<double>(c.llcHits));
    accumulate(metrics, "cache.quota_rejects",
               static_cast<double>(c.quotaRejects));
    accumulate(metrics, "cache.alloc_attempts",
               static_cast<double>(c.allocAttempts));
    return c;
}

void
runTraceDriver(const Workload &w, Metrics *metrics)
{
    constexpr unsigned kCalls = 20000;
    volatile bh::Addr sink = 0;
    auto time_trace = [&](bh::TraceSource &t, const std::string &prefix) {
        double t0 = monoNow();
        for (unsigned i = 0; i < kCalls; ++i)
            sink = sink + t.next().addr;
        (*metrics)[prefix + "_s"] += monoNow() - t0;
        (*metrics)[prefix + "_calls"] += kCalls;
    };
    std::set<std::string> seen;
    bool any_attacker = false;
    for (const bh::ExperimentConfig &cfg : w.grid) {
        if (!seen.insert(cfg.mix.name + "|" + std::to_string(cfg.channels))
                 .second)
            continue;
        bh::SystemConfig sys = replicaSystemConfig(cfg);
        bh::AddressMap mapper(sys.spec.org, 4, sys.interleave);
        Traces traces = makeTraces(sys, cfg.mix.slots, mapper);
        for (std::size_t i = 0; i < traces.sources.size(); ++i) {
            any_attacker = any_attacker || !traces.benign[i];
            time_trace(*traces.sources[i], traces.benign[i]
                                               ? "trace.benign"
                                               : "trace.attacker");
        }
    }
    if (!any_attacker) {
        // Benign-only grids still report the attacker stream's cost,
        // from the default attack pattern on the first point's map.
        bh::SystemConfig sys = replicaSystemConfig(w.grid.front());
        bh::AddressMap mapper(sys.spec.org, 4, sys.interleave);
        bh::AttackerTrace t(bh::AttackerConfig{}, mapper, sys.seed);
        time_trace(t, "trace.attacker");
    }
}

namespace {

std::uint64_t
retiredSum(const bh::RunResult &r)
{
    std::uint64_t n = 0;
    for (const bh::CoreResult &core : r.cores)
        n += core.retired;
    return n;
}

/** Run @p fn inside a span; returns its duration in seconds. */
template <typename Fn>
double
timed(Tracer &tracer, const char *name, const std::string &key, Fn &&fn)
{
    double t0 = monoNow();
    {
        Scope span(tracer, name, key);
        fn();
    }
    return monoNow() - t0;
}

ReplicaOutcome
replayExact(const bh::ExperimentConfig &cfg,
            const bh::ExperimentResult &record, Tracer &tracer)
{
    ReplicaOutcome out;
    const std::string key = bh::experimentKey(cfg);
    bh::SystemConfig sys = replicaSystemConfig(cfg);
    std::unique_ptr<bh::System> system;
    timed(tracer, "sim.construct", key, [&] {
        system = std::make_unique<bh::System>(sys, cfg.mix.slots);
    });
    bh::RunResult r;
    out.rateSeconds = timed(tracer, "sim.run", key, [&] {
        r = system->run(cfg.instructions, cfg.instructions * 150);
    });
    out.instructions = retiredSum(r);
    out.cycles = r.cycles;
    out.matches = r.cycles == record.raw.cycles &&
                  r.preventiveActions == record.raw.preventiveActions;
    if (!out.matches)
        out.why = "replica cycles/preventive actions differ from record";

    // The snapshot codec and fast-forward on the finished System.
    std::string blob;
    timed(tracer, "snapshot.save", key,
          [&] { blob = system->snapshotBlob(); });
    out.snapshotBytes = blob.size();
    bh::System fresh(sys, cfg.mix.slots);
    bool restored = false;
    timed(tracer, "snapshot.restore", key,
          [&] { restored = fresh.restoreSnapshotBlob(blob); });
    if (!restored) {
        out.matches = false;
        out.why = "snapshot of the replica does not restore";
        return out;
    }
    timed(tracer, "sim.fast_forward", key,
          [&] { fresh.fastForward(cfg.instructions / 10); });
    return out;
}

/** The window schedule of runExperiment's sampled path, one thread. */
ReplicaOutcome
replaySampled(const bh::ExperimentConfig &cfg,
              const bh::ExperimentResult &record, Tracer &tracer)
{
    ReplicaOutcome out;
    const std::string key = bh::experimentKey(cfg);
    const bh::SamplingSpec &sp = cfg.sample;
    const std::uint64_t stride = sp.fastForward + sp.warmup + sp.measure;
    const std::uint64_t nwin = (cfg.instructions - sp.warmup) / stride;
    bh::SystemConfig sys = replicaSystemConfig(cfg);

    std::unique_ptr<bh::System> ancestor;
    timed(tracer, "sim.construct", key, [&] {
        ancestor = std::make_unique<bh::System>(sys, cfg.mix.slots);
    });
    bh::RunResult warm;
    out.rateSeconds = timed(tracer, "sim.run", key, [&] {
        warm = ancestor->run(sp.warmup, sp.warmup * 150 + 1000000);
    });
    out.instructions += retiredSum(warm);
    out.cycles += warm.cycles;

    std::vector<std::string> blobs(nwin);
    for (std::uint64_t k = 0; k < nwin; ++k) {
        timed(tracer, "sim.fast_forward", key, [&] {
            ancestor->fastForward(k == 0 ? sp.fastForward : stride);
        });
        timed(tracer, "snapshot.save", key,
              [&] { blobs[k] = ancestor->snapshotBlob(); });
        out.snapshotBytes += blobs[k].size();
    }

    const bh::Cycle phase_cap =
        std::max<bh::Cycle>((sp.warmup + sp.measure) * 150, 1000000);
    double prev_sum = 0.0;
    for (std::uint64_t k = 0; k < nwin; ++k) {
        bool restored = false;
        timed(tracer, "snapshot.restore", key, [&] {
            restored = ancestor->restoreSnapshotBlob(blobs[k]);
        });
        if (!restored) {
            out.why = "window snapshot does not restore";
            return out;
        }
        bh::RunResult w, m;
        timed(tracer, "sim.run", key,
              [&] { w = ancestor->runDelta(sp.warmup, phase_cap); });
        // Only the measured phase's work is countable from outside (the
        // re-warm starts from a restored, unobservable retired count),
        // so it alone feeds the per-instruction and per-cycle rates.
        out.rateSeconds += timed(tracer, "sim.run", key, [&] {
            m = ancestor->runDelta(sp.measure, phase_cap);
        });
        out.instructions += retiredSum(m) - retiredSum(w);
        out.cycles += m.cycles - w.cycles;
        prev_sum += static_cast<double>(m.preventiveActions) -
                    static_cast<double>(w.preventiveActions);
    }
    out.snapshotBytes = nwin ? out.snapshotBytes / nwin : 0;

    const double nwin_d = static_cast<double>(nwin);
    const double tail_scale =
        static_cast<double>(cfg.instructions - sp.warmup) /
        static_cast<double>(sp.measure);
    const std::uint64_t preventive = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(warm.preventiveActions) +
                     prev_sum / nwin_d * tail_scale));
    out.matches = record.sampling.enabled &&
                  record.sampling.windows == nwin &&
                  record.raw.preventiveActions == preventive;
    if (!out.matches)
        out.why = "replica windows/preventive estimate differ from record";
    return out;
}

} // namespace

ReplicaOutcome
replayOnReplica(const bh::ExperimentConfig &cfg,
                const bh::ExperimentResult &record, Tracer &tracer)
{
    return cfg.sample.enabled() ? replaySampled(cfg, record, tracer)
                                : replayExact(cfg, record, tracer);
}

} // namespace hb
