/**
 * @file
 * Snapshot/restore tests, per layer and end to end.
 *
 * Layer tests save one component mid-epoch, restore it into a freshly
 * constructed twin, and require field-level state equality — asserted as
 * byte equality of the two serialized states, which also pins the
 * unordered_map iteration-order reconstruction that MisraGries-based
 * mechanisms depend on — and then drive both instances through an
 * identical event stream and require identical behaviour.
 *
 * The end-to-end tests run a full System, checkpoint it mid-run, resume
 * the snapshot in a new System, and require the completed run to match an
 * uninterrupted reference run bit for bit (the CI kill-resume job checks
 * the same invariant across real processes and SIGKILL).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "breakhammer/breakhammer.h"
#include "cache/llc.h"
#include "cache/mshr.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "core/core.h"
#include "dram/timing.h"
#include "mem/controller.h"
#include "mitigation/factory.h"
#include "mitigation/hydra.h"
#include "mitigation/misra_gries.h"
#include "sim/experiment.h"
#include "sim/mixes.h"
#include "sim/redteam.h"
#include "sim/system.h"
#include "trace/adaptive.h"
#include "trace/attacker.h"

namespace bh {
namespace {

/** Serialized state of any component exposing saveState(). */
template <class T>
std::string
stateBlob(const T &component)
{
    StateWriter w;
    component.saveState(w);
    return w.take();
}

std::string
tempPath(const std::string &name)
{
    std::string dir =
        std::filesystem::temp_directory_path() / "bh_snapshot_tests";
    std::filesystem::create_directories(dir);
    return dir + "/" + name;
}

// ------------------------------------------------------- codec basics

TEST(SnapshotCodecTest, ScalarsRoundTrip)
{
    StateWriter w;
    w.u8(0xab);
    w.b(true);
    w.u32(0xdeadbeef);
    w.u64(0x123456789abcdef0ull);
    w.d(0.72237629069954734);
    // Embedded NUL must survive: construct with an explicit length so
    // the literal is not truncated at the NUL by const char* conversion.
    const std::string with_nul("hello\0world", 11);
    w.str(with_nul);
    w.tag("section");

    StateReader r(w.take());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
    EXPECT_EQ(r.d(), 0.72237629069954734);
    EXPECT_EQ(r.str(), with_nul);
    EXPECT_TRUE(r.tag("section"));
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodecTest, TruncationAndWrongTagFailSticky)
{
    StateWriter w;
    w.u64(7);
    std::string bytes = w.take();
    StateReader r(bytes.substr(0, 3)); // Truncated mid-integer.
    r.u64();
    EXPECT_FALSE(r.ok());
    r.u64(); // Still failed, never throws.
    EXPECT_FALSE(r.ok());

    StateWriter w2;
    w2.tag("alpha");
    StateReader r2(w2.take());
    EXPECT_FALSE(r2.tag("beta"));
    EXPECT_FALSE(r2.ok());
}

TEST(SnapshotCodecTest, CorruptLengthDoesNotAllocate)
{
    StateWriter w;
    w.u64(static_cast<std::uint64_t>(-1)); // Absurd element count.
    StateReader r(w.take());
    std::vector<std::uint64_t> v;
    EXPECT_FALSE(loadU64Vector(r, &v));
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotCodecTest, UnorderedMapPreservesIterationOrder)
{
    // The property the MisraGries reclaim scan depends on: reloading a
    // map reproduces not just its contents but its exact iteration
    // order and bucket count.
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    Rng rng(42);
    for (int i = 0; i < 1000; ++i)
        m[rng.next() % 1500] = i;
    for (int i = 0; i < 300; ++i)
        m.erase(rng.next() % 1500);

    StateWriter w;
    saveUnorderedMap(
        w, m, [](StateWriter &sw, std::uint64_t k) { sw.u64(k); },
        [](StateWriter &sw, std::uint64_t v) { sw.u64(v); });

    std::unordered_map<std::uint64_t, std::uint64_t> back;
    StateReader r(w.take());
    ASSERT_TRUE(loadUnorderedMap(
        r, &back, [](StateReader &sr, std::uint64_t *k) { *k = sr.u64(); },
        [](StateReader &sr, std::uint64_t *v) { *v = sr.u64(); }));

    EXPECT_EQ(back.bucket_count(), m.bucket_count());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> a(m.begin(),
                                                           m.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> b(back.begin(),
                                                           back.end());
    EXPECT_EQ(a, b); // Same sequence, not just the same set.
}

TEST(SnapshotCodecTest, MisraGriesReclaimMatchesAfterRestore)
{
    // Saturate a tiny summary so increments hit the reclaim path (which
    // erases the first stale entry in iteration order) and check the
    // restored twin makes identical reclaim decisions.
    MisraGries a(8);
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        a.increment(rng.next() % 32);

    MisraGries b(8);
    StateReader r(stateBlob(a));
    b.loadState(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(stateBlob(a), stateBlob(b));

    Rng drive(11);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t row = drive.next() % 32;
        ASSERT_EQ(a.increment(row), b.increment(row)) << "step " << i;
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
}

// ------------------------------------------- mitigation mechanisms

/** Recording host: collects every action a mechanism requests. */
class RecordingHost : public IMitigationHost
{
  public:
    void
    performVictimRefresh(unsigned bank, unsigned row, double w) override
    {
        log.push_back({1, bank, row, w});
    }
    void
    performMigration(unsigned bank, unsigned row) override
    {
        log.push_back({2, bank, row, 0.0});
    }
    void performRfm(unsigned bank, double w) override
    {
        log.push_back({3, bank, 0, w});
    }
    void performAlertBackoff(unsigned n, double w) override
    {
        log.push_back({4, n, 0, w});
    }
    void performTrackerAccess(unsigned bank, Cycle d, double w) override
    {
        log.push_back({5, bank, static_cast<unsigned>(d), w});
    }
    void notifyRowProtected(unsigned bank, unsigned row) override
    {
        log.push_back({6, bank, row, 0.0});
    }
    void creditDirectScore(ThreadId t, double amount) override
    {
        log.push_back({7, t, 0, amount});
    }

    struct Event
    {
        int kind;
        unsigned a, b;
        double w;
        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && a == o.a && b == o.b && w == o.w;
        }
    };
    std::vector<Event> log;
};

/** Deterministic ACT/refresh stream shared by the twin instances. */
void
driveMechanism(IMitigation *m, const DramSpec &spec, std::uint64_t seed,
               Cycle start_cycle, int steps, Cycle *cycle_out)
{
    Rng rng(seed);
    Cycle cycle = start_cycle;
    unsigned total_banks = spec.org.totalBanks();
    for (int i = 0; i < steps; ++i) {
        cycle += 20 + rng.next() % 400;
        m->advanceTo(cycle);
        unsigned bank = static_cast<unsigned>(rng.next() % total_banks);
        // A small row set so per-row thresholds actually trigger.
        unsigned row = static_cast<unsigned>(rng.next() % 24);
        ThreadId thread = static_cast<ThreadId>(rng.next() % 4);
        m->commitAct(bank, row, thread, cycle);
        if (i % 97 == 96) {
            unsigned rank =
                static_cast<unsigned>(rng.next() % spec.org.ranks);
            unsigned sweep_start =
                static_cast<unsigned>(rng.next() % spec.org.rowsPerBank);
            m->onPeriodicRefresh(rank, sweep_start, 8, cycle);
        }
    }
    *cycle_out = cycle;
}

class MitigationSnapshotTest
    : public ::testing::TestWithParam<MitigationType>
{};

TEST_P(MitigationSnapshotTest, MidEpochRoundTripIsFieldExact)
{
    MitigationType type = GetParam();
    DramSpec spec = DramSpec::ddr5();
    applyTimingSideEffects(type, 512, &spec);

    RecordingHost host_a;
    auto a = createMitigation(type, 512, spec, 4);
    ASSERT_NE(a, nullptr);
    a->setHost(&host_a);

    // Phase 1 crosses at least one epoch/window boundary (the streams
    // jump by ~half a tREFW once) so rollover state is mid-flight too.
    Cycle cycle = 0;
    driveMechanism(a.get(), spec, 123, 0, 400, &cycle);
    driveMechanism(a.get(), spec, 321, cycle + spec.timing.tREFW / 2, 400,
                   &cycle);

    // Save mid-epoch, load into a fresh twin: field-level equality is
    // asserted on the serialized state (every field round-trips).
    std::string blob = stateBlob(*a);
    RecordingHost host_b;
    auto b = createMitigation(type, 512, spec, 4);
    b->setHost(&host_b);
    StateReader r(blob);
    b->loadState(r);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.atEnd());
    EXPECT_EQ(stateBlob(*b), blob);

    // Phase 2: identical further streams must produce identical actions
    // and identical final state.
    host_a.log.clear();
    Cycle cycle_b = cycle;
    Cycle end_a = 0, end_b = 0;
    driveMechanism(a.get(), spec, 777, cycle, 600, &end_a);
    driveMechanism(b.get(), spec, 777, cycle_b, 600, &end_b);
    EXPECT_EQ(end_a, end_b);
    EXPECT_EQ(host_a.log.size(), host_b.log.size());
    EXPECT_TRUE(host_a.log == host_b.log);
    EXPECT_EQ(stateBlob(*a), stateBlob(*b));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MitigationSnapshotTest,
    ::testing::Values(MitigationType::kPara, MitigationType::kGraphene,
                      MitigationType::kHydra, MitigationType::kTwice,
                      MitigationType::kAqua, MitigationType::kRega,
                      MitigationType::kRfm, MitigationType::kPrac,
                      MitigationType::kBlockHammer),
    [](const ::testing::TestParamInfo<MitigationType> &info) {
        return std::string(mitigationName(info.param));
    });

// -------------------------------------------------------- BreakHammer

TEST(BreakHammerSnapshotTest, MidWindowRoundTripIsFieldExact)
{
    BreakHammerConfig config;
    config.window = 50000;
    config.thThreat = 4.0;

    MshrFile mshr_a(64, 4), mshr_b(64, 4);
    BreakHammer a(4, config, &mshr_a);
    BreakHammer b(4, config, &mshr_b);

    // Train mid-window: activations skewed to thread 3 so suspects and
    // quota reductions actually happen, crossing window boundaries.
    Rng rng(99);
    Cycle cycle = 0;
    for (int i = 0; i < 3000; ++i) {
        cycle += 10 + rng.next() % 120;
        ThreadId t = (rng.next() % 3) ? 3 : static_cast<ThreadId>(
                                                rng.next() % 4);
        a.onDemandActivate(t, static_cast<unsigned>(rng.next() % 16),
                           cycle);
        if (i % 11 == 10)
            a.onPreventiveAction(1.0, cycle);
    }
    ASSERT_GT(a.suspectMarks(), 0u); // The stream must exercise Alg 1.

    std::string blob = stateBlob(a);
    std::string mshr_blob = stateBlob(mshr_a);
    {
        StateReader r(blob);
        b.loadState(r);
        ASSERT_TRUE(r.ok());
    }
    {
        StateReader r(mshr_blob);
        mshr_b.loadState(r);
        ASSERT_TRUE(r.ok());
    }
    EXPECT_EQ(stateBlob(b), blob);
    EXPECT_EQ(stateBlob(mshr_b), mshr_blob);
    for (ThreadId t = 0; t < 4; ++t) {
        EXPECT_EQ(a.score(t), b.score(t));
        EXPECT_EQ(a.quota(t), b.quota(t));
        EXPECT_EQ(a.isSuspect(t), b.isSuspect(t));
        EXPECT_EQ(a.wasRecentSuspect(t), b.wasRecentSuspect(t));
    }

    // Identical continuations, including a window rollover.
    Rng drive(55);
    Cycle c2 = cycle;
    for (int i = 0; i < 2000; ++i) {
        c2 += 10 + drive.next() % 150;
        ThreadId t = static_cast<ThreadId>(drive.next() % 4);
        unsigned bank = static_cast<unsigned>(drive.next() % 16);
        a.onDemandActivate(t, bank, c2);
        b.onDemandActivate(t, bank, c2);
        if (i % 13 == 12) {
            a.onPreventiveAction(1.5, c2);
            b.onPreventiveAction(1.5, c2);
        }
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
    EXPECT_EQ(stateBlob(mshr_a), stateBlob(mshr_b));
    EXPECT_EQ(a.suspectMarks(), b.suspectMarks());
}

// --------------------------------------------- adaptive attacker trace

/** Deterministic feedback script for driving mid-adaptation state. */
class AlternatingFeedback : public IThrottleFeedbackView
{
  public:
    ThrottleFeedback
    sampleThrottleFeedback(ThreadId) const override
    {
        ThrottleFeedback fb;
        fb.suspect = calls_++ % 2 == 0;
        fb.score = static_cast<double>(calls_) * 0.25;
        fb.quota = 3;
        fb.fullQuota = 16;
        return fb;
    }

  private:
    mutable std::uint64_t calls_ = 0;
};

TEST(AdaptiveTraceSnapshotTest, MidAdaptationRoundTripIsFieldExact)
{
    AddressMap mapper(DramSpec::ddr5().org);
    AttackerConfig attack;
    attack.pattern = AttackPattern::kHalfDouble;
    attack.rowBase = 96;
    AdaptiveConfig adaptive;
    adaptive.observeEvery = 16;
    adaptive.groupSize = 2;
    adaptive.slotIndex = 0;
    adaptive.handoffEpoch = 96;

    // Drive to an arbitrary point mid-epoch and mid-observation window,
    // with rotations, back-off, and feedback history all non-trivial.
    AlternatingFeedback feedback;
    AdaptiveAttackerTrace a(attack, adaptive, mapper, 13);
    a.bindFeedback(&feedback, 2);
    for (int i = 0; i < 16 * 7 + 5; ++i)
        a.next();
    ASSERT_GT(a.rotation(), 0u);
    ASSERT_GT(a.lastScore(), 0.0);

    // Restore into a fresh twin: serialized state must be byte-equal
    // (covers the RNG cursor and the observed-feedback history).
    std::string blob = stateBlob(a);
    AdaptiveAttackerTrace b(attack, adaptive, mapper, 13);
    {
        StateReader r(blob);
        b.loadState(r);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(r.atEnd());
    }
    EXPECT_EQ(stateBlob(b), blob);
    EXPECT_EQ(b.rotation(), a.rotation());
    EXPECT_EQ(b.currentBubbles(), a.currentBubbles());
    EXPECT_EQ(b.lastScore(), a.lastScore());
    EXPECT_EQ(b.lastQuota(), a.lastQuota());
    EXPECT_EQ(b.currentAggressorRows(), a.currentAggressorRows());

    // And both continue bit-identically through further adaptation.
    AlternatingFeedback fa, fb2;
    // Re-bind fresh scripts at the same call offset: copy-construct the
    // original's position by replaying its observation count.
    for (std::uint64_t i = 0; i < a.observations(); ++i) {
        fa.sampleThrottleFeedback(0);
        fb2.sampleThrottleFeedback(0);
    }
    a.bindFeedback(&fa, 2);
    b.bindFeedback(&fb2, 2);
    for (int i = 0; i < 500; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.bubbles, rb.bubbles);
        EXPECT_EQ(ra.uncached, rb.uncached);
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
}

// ------------------------------------------------------- full System

SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    sys.spec = DramSpec::ddr5();
    applyTimingSideEffects(cfg.mechanism, cfg.nRh, &sys.spec);
    sys.mitigation = cfg.mechanism;
    sys.nRh = cfg.nRh;
    sys.breakHammer = cfg.breakHammer;
    sys.bh = scaledBreakHammerConfig(cfg.instructions);
    sys.enableOracle = cfg.oracle;
    sys.seed = cfg.seed;
    if (cfg.channels)
        sys.spec.org.channels = cfg.channels;
    if (cfg.ranks)
        sys.spec.org.ranks = cfg.ranks;
    return sys;
}

void
expectRunResultsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energyNj, b.energyNj);
    EXPECT_EQ(a.preventiveEnergyNj, b.preventiveEnergyNj);
    EXPECT_EQ(a.preventiveActions, b.preventiveActions);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.suspectMarks, b.suspectMarks);
    EXPECT_EQ(a.quotaRejections, b.quotaRejections);
    EXPECT_EQ(a.oracleViolations, b.oracleViolations);
    EXPECT_EQ(a.oracleMaxCount, b.oracleMaxCount);
    EXPECT_EQ(a.bhScores, b.bhScores);
    EXPECT_EQ(a.bhQuotas, b.bhQuotas);
    EXPECT_TRUE(a.benignReadLatencyNs == b.benignReadLatencyNs);
    EXPECT_EQ(a.hitCycleCap, b.hitCycleCap);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].name, b.cores[i].name);
        EXPECT_EQ(a.cores[i].retired, b.cores[i].retired);
        EXPECT_EQ(a.cores[i].finishCycle, b.cores[i].finishCycle);
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].rejectStalls, b.cores[i].rejectStalls);
    }
}

struct SystemRegime
{
    const char *name;
    const char *pattern;
    MitigationType mechanism;
    unsigned nRh;
    bool breakHammer;
    bool oracle;
    /** Red-team strategy applied to the mix's attacker slots (or null). */
    const char *redteam = nullptr;
};

class SystemSnapshotTest : public ::testing::TestWithParam<SystemRegime>
{};

TEST_P(SystemSnapshotTest, ResumedRunMatchesUninterruptedRun)
{
    const SystemRegime &regime = GetParam();
    ExperimentConfig cfg;
    cfg.mix = makeMix(regime.pattern, 0);
    cfg.mechanism = regime.mechanism;
    cfg.nRh = regime.nRh;
    cfg.breakHammer = regime.breakHammer;
    cfg.oracle = regime.oracle;
    cfg.instructions = 5000;
    if (regime.redteam != nullptr) {
        RedteamStrategy strategy;
        ASSERT_TRUE(parseRedteamStrategy(regime.redteam, &strategy));
        applyRedteamStrategy(strategy, &cfg.mix.slots);
    }
    SystemConfig sys = systemConfigFor(cfg);
    const std::uint64_t insts = cfg.instructions;
    const Cycle cap = insts * 150;

    // Reference: one uninterrupted run.
    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(insts, cap);
    }

    // Checkpointed run: identical results (saving is observation-only),
    // and it leaves its last snapshot on disk.
    std::string snap = tempPath(std::string("sys_") + regime.name +
                                ".snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1500;
        system.setCheckpoint(ckpt);
        RunResult checkpointed = system.run(insts, cap);
        expectRunResultsIdentical(reference, checkpointed);
    }

    // "Kill": throw that run away; resume a fresh System from the last
    // snapshot and finish. Bit-identical to the uninterrupted run.
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(insts, cap);
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SystemSnapshotTest,
    ::testing::Values(
        SystemRegime{"graphene_bh_attack", "HHMA",
                     MitigationType::kGraphene, 512, true, false},
        SystemRegime{"hydra_benign", "HHMM", MitigationType::kHydra, 512,
                     false, false},
        SystemRegime{"prac_attack_oracle", "LLLA", MitigationType::kPrac,
                     256, true, true},
        SystemRegime{"blockhammer_lowthresh", "LLLA",
                     MitigationType::kBlockHammer, 128, false, false},
        SystemRegime{"para_rng", "MMLA", MitigationType::kPara, 1024,
                     true, false},
        SystemRegime{"redteam_adaptive_rotating", "MMAA",
                     MitigationType::kPara, 512, true, false,
                     "pat=half,obs=32,bub=64,grp=2,ho=512"}),
    [](const ::testing::TestParamInfo<SystemRegime> &info) {
        return info.param.name;
    });

TEST(SystemSnapshotTest, CycleCadenceAndMidRunKillAlsoResumeExactly)
{
    // Kill at an arbitrary mid-run cycle (not a checkpoint boundary):
    // the run is cut by a max_cycles cap, so the snapshot on disk is
    // from the last cycle-cadence checkpoint strictly before the cut.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
    }

    std::string snap = tempPath("sys_cycle_cadence.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyCycles = 7001; // Deliberately off every natural grid.
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, reference.cycles / 2);
    }
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, DenseAndEventLoopsAcceptEachOthersSnapshots)
{
    // A snapshot is loop-mode agnostic: state at a cycle boundary is
    // identical in both loops (test_system_skip's invariant), so a
    // snapshot taken by the event loop resumes under BH_DENSE_TICK and
    // vice versa.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 3000;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
    }

    std::string snap = tempPath("sys_cross_mode.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1000;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cap);
    }
    {
        ::setenv("BH_DENSE_TICK", "1", 1);
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        ::unsetenv("BH_DENSE_TICK");
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, FourChannelKillResumeIsFieldExactPerChannel)
{
    // Multi-channel scale-out: kill a 4-channel Graphene+BreakHammer run
    // mid-BreakHammer-window, resume from the last snapshot, and require
    // not just identical results but a byte-identical serialized System —
    // the snapshot blob carries one section per channel (controller,
    // Graphene tables with per-rank flat-bank state, oracle, census) plus
    // the shared BreakHammer scores, so blob equality is field-exact
    // equality of every per-channel/per-rank structure.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    cfg.channels = 4;
    cfg.ranks = 2;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    std::string reference_state;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
        reference_state = system.snapshotBlob();
    }

    std::string snap = tempPath("sys_four_channel.snap");
    std::remove(snap.c_str());
    {
        // "Kill" mid-run: cut at half the reference cycle count, off any
        // checkpoint boundary, leaving the last mid-window snapshot.
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, reference.cycles / 2);
    }
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        expectRunResultsIdentical(reference, resumed);
        EXPECT_EQ(system.snapshotBlob(), reference_state);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, StaleVersionSnapshotsAreRejected)
{
    // Regression for the v2 -> v3 format bump (per-channel sections): a
    // snapshot carrying an older version number must be rejected by the
    // version check itself — not by a downstream parse error — even when
    // its checksum is valid. Stale snapshots recompute, never mislead.
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;
    SystemConfig sys = systemConfigFor(cfg);

    std::string snap = tempPath("sys_stale_version.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cfg.instructions * 150);
    }

    std::string blob;
    ASSERT_TRUE(readFile(snap, &blob));
    // The u32 format version sits right after the magic string (u64
    // length prefix + 8 magic bytes = offset 16). Patch it to the
    // previous version and re-seal the trailing checksum so the version
    // check is the only thing standing.
    std::string stale = blob;
    StateWriter version;
    version.u32(System::kSnapshotVersion - 1);
    ASSERT_EQ(version.data().size(), 4u);
    stale.replace(16, 4, version.data());
    std::uint64_t checksum = fnv1a64Chunked(stale.data(), stale.size() - 8);
    StateWriter tail;
    tail.u64(checksum);
    stale.replace(stale.size() - 8, 8, tail.data());
    ASSERT_TRUE(writeFileAtomic(snap, stale, nullptr));

    System system(sys, cfg.mix.slots);
    std::string error;
    EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, DamagedOrForeignSnapshotsAreRejected)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;
    SystemConfig sys = systemConfigFor(cfg);

    std::string snap = tempPath("sys_damage.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cfg.instructions * 150);
    }

    // Bit flip in the middle: checksum rejects it.
    std::string blob;
    ASSERT_TRUE(readFile(snap, &blob));
    {
        std::string damaged = blob;
        damaged[damaged.size() / 2] ^= 0x40;
        ASSERT_TRUE(writeFileAtomic(snap, damaged, nullptr));
        System system(sys, cfg.mix.slots);
        std::string error;
        EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
        EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    }

    // Intact blob, wrong configuration: fingerprint rejects it.
    {
        ASSERT_TRUE(writeFileAtomic(snap, blob, nullptr));
        SystemConfig other = sys;
        other.nRh = 64;
        System system(other, cfg.mix.slots);
        EXPECT_FALSE(system.resumeFromSnapshot(snap, nullptr));
    }

    // Intact blob, wrong identity: the caller's schema guard rejects it.
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        ckpt.identity = "some-other-experiment|store_schema=999";
        system.setCheckpoint(ckpt);
        std::string error;
        EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
        EXPECT_NE(error.find("identity"), std::string::npos) << error;
    }

    // Missing file: plain "no snapshot", not an error state.
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        EXPECT_FALSE(system.resumeFromSnapshot(snap, nullptr));
    }
}

TEST(SystemSnapshotTest, RunExperimentResumesAndCleansUpItsSnapshot)
{
    // The bench-level wiring: with a CheckpointSpec in its RunOptions,
    // runExperiment() writes snapshots while running, resumes from one
    // when present, and removes it on completion.
    std::string dir = tempPath("exp_ckpt_dir");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 4000;

    ExperimentResult reference = runExperiment(cfg);

    RunOptions options;
    options.checkpoint.dir = dir;
    options.checkpoint.everyInsts = 1500;
    ExperimentResult checkpointed = runExperiment(cfg, options);

    EXPECT_EQ(reference.weightedSpeedup, checkpointed.weightedSpeedup);
    EXPECT_EQ(reference.maxSlowdown, checkpointed.maxSlowdown);
    EXPECT_EQ(reference.energyNj, checkpointed.energyNj);
    expectRunResultsIdentical(reference.raw, checkpointed.raw);
    // Completed runs leave no snapshot behind.
    EXPECT_FALSE(std::filesystem::exists(
        snapshotPath(dir, cfg)));

    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ wire-format goldens

// The round-trip tests above compare a blob with its own reload, so a
// codec change that alters both directions the same way passes them.
// These pin the bytes themselves (kSnapshotVersion 4): a snapshot written
// by one build must load in another. The digests assume libstdc++'s
// unordered_map layout — the maps serialize in iteration order — just as
// UnorderedMapPreservesIterationOrder assumes its rebuild rule.

std::uint64_t
digest(const std::string &blob)
{
    return fnv1a64(blob.data(), blob.size());
}

TEST(SnapshotFormatTest, MechanismBytesArePinned)
{
    const std::pair<MitigationType, std::uint64_t> golden[] = {
        {MitigationType::kPara, 0x17aaa5c529cbd94dull},
        {MitigationType::kGraphene, 0x6f6231db6faef366ull},
        {MitigationType::kHydra, 0xa21c35f3af535393ull},
        {MitigationType::kTwice, 0xe137bb24d4adda46ull},
        {MitigationType::kAqua, 0x95baf188c83a8d83ull},
        {MitigationType::kRega, 0x89fedff1f3aa9c05ull},
        {MitigationType::kRfm, 0x654c7631c079105dull},
        {MitigationType::kPrac, 0x0e4f7a35a9684bbeull},
        {MitigationType::kBlockHammer, 0x8fdcf9dd64a95ca3ull},
    };
    for (const auto &[type, expect] : golden) {
        // Driven exactly as MidEpochRoundTripIsFieldExact drives it.
        DramSpec spec = DramSpec::ddr5();
        applyTimingSideEffects(type, 512, &spec);
        RecordingHost host;
        auto m = createMitigation(type, 512, spec, 4);
        ASSERT_NE(m, nullptr);
        m->setHost(&host);
        Cycle cycle = 0;
        driveMechanism(m.get(), spec, 123, 0, 400, &cycle);
        driveMechanism(m.get(), spec, 321, cycle + spec.timing.tREFW / 2,
                       400, &cycle);
        EXPECT_EQ(digest(stateBlob(*m)), expect)
            << mitigationName(type) << " digest 0x" << std::hex
            << digest(stateBlob(*m));
    }
}

struct FormatRegime
{
    SystemRegime regime;
    unsigned channels;
    unsigned ranks;
    std::uint64_t digest;
};

TEST(SnapshotFormatTest, SystemBytesArePinned)
{
    // The six SystemSnapshotTest regimes plus one 4-channel, 2-rank
    // system, each saved with requests in flight partway through a run.
    const FormatRegime golden[] = {
        {{"graphene_bh_attack", "HHMA", MitigationType::kGraphene, 512,
          true, false},
         0, 0, 0x25f843d4e329f1fbull},
        {{"hydra_benign", "HHMM", MitigationType::kHydra, 512, false,
          false},
         0, 0, 0xc6be7398bf865445ull},
        {{"prac_attack_oracle", "LLLA", MitigationType::kPrac, 256, true,
          true},
         0, 0, 0x817a3df1e16bf97cull},
        {{"blockhammer_lowthresh", "LLLA", MitigationType::kBlockHammer,
          128, false, false},
         0, 0, 0xc9bfb66f7655412bull},
        {{"para_rng", "MMLA", MitigationType::kPara, 1024, true, false},
         0, 0, 0x51999d9dcfb270dbull},
        {{"redteam_adaptive_rotating", "MMAA", MitigationType::kPara, 512,
          true, false, "pat=half,obs=32,bub=64,grp=2,ho=512"},
         0, 0, 0x4b876a5e0ef7630eull},
        {{"graphene_bh_4ch_2rank", "HHMA", MitigationType::kGraphene, 512,
          true, false},
         4, 2, 0x3bab7b073a6f48e5ull},
    };
    for (const FormatRegime &g : golden) {
        ExperimentConfig cfg;
        cfg.mix = makeMix(g.regime.pattern, 0);
        cfg.mechanism = g.regime.mechanism;
        cfg.nRh = g.regime.nRh;
        cfg.breakHammer = g.regime.breakHammer;
        cfg.oracle = g.regime.oracle;
        cfg.instructions = 5000;
        cfg.channels = g.channels;
        cfg.ranks = g.ranks;
        if (g.regime.redteam != nullptr) {
            RedteamStrategy strategy;
            ASSERT_TRUE(parseRedteamStrategy(g.regime.redteam, &strategy));
            applyRedteamStrategy(strategy, &cfg.mix.slots);
        }
        System system(systemConfigFor(cfg), cfg.mix.slots);
        (void)system.run(cfg.instructions / 2, cfg.instructions * 150);
        std::string blob = system.snapshotBlob();
        EXPECT_EQ(digest(blob), g.digest)
            << g.regime.name << " digest 0x" << std::hex << digest(blob);
    }
}

TEST(SnapshotFormatTest, LlcNarrowAndWideTagStoresArePinned)
{
    // The LLC's struct-of-arrays tag store has two encodings; real runs
    // only ever take the 32-bit one, so drive both explicitly.
    for (const auto &[base, expect] :
         {std::pair<Addr, std::uint64_t>{0, 0x6dce24e9c014a175ull},
          std::pair<Addr, std::uint64_t>{Addr{1} << 44, 0x44981b85ebc4e0f2ull}}) {
        LlcConfig config;
        config.sizeBytes = 64 << 10;
        Llc llc(config);
        Rng rng(5);
        for (int i = 0; i < 3000; ++i) {
            Addr line = base + (rng.next() % 4096) * kCacheLineBytes;
            bool is_write = rng.next() % 3 == 0;
            if (!llc.access(line, is_write)) {
                Llc::Victim victim;
                llc.allocate(line, is_write, &victim);
            }
        }
        std::string blob = stateBlob(llc);
        EXPECT_EQ(digest(blob), expect)
            << "base " << base << " digest 0x" << std::hex << digest(blob);
    }
}

// ---------------------------------------- decoded indices are checked

// A snapshot file is outside input: a crafted blob passes the checksum
// and fingerprint checks, so every decoded field that later indexes an
// array must be range-checked by the load itself.

/** @p blob with the u64 at byte @p offset replaced by @p value. */
std::string
patchU64(std::string blob, std::size_t offset, std::uint64_t value)
{
    StateWriter w;
    w.u64(value);
    return blob.replace(offset, 8, w.data());
}

/** Whether @p blob loads cleanly into @p component. */
template <class T>
bool
loads(T &component, const std::string &blob)
{
    StateReader r(blob);
    component.loadState(r);
    return r.ok();
}

TEST(SnapshotValidationTest, ArchiveRejectsNarrowingAndLengthMismatch)
{
    const std::vector<std::uint64_t> three(3, 7);
    StateWriter w;
    w.u64(std::uint64_t{1} << 32); // Does not fit an unsigned.
    w.fixedVec(three, asU64);
    const std::string blob = w.take();

    StateReader narrow(blob);
    unsigned small = 0;
    narrow.u64(small);
    EXPECT_FALSE(narrow.ok());

    // A fixed-size vector constructed for four elements rejects three
    // and is left as constructed.
    StateReader mismatch(blob);
    std::uint64_t wide = 0;
    mismatch.u64(wide);
    std::vector<std::uint64_t> four(4);
    mismatch.fixedVec(four, asU64);
    EXPECT_FALSE(mismatch.ok());
    EXPECT_EQ(four, std::vector<std::uint64_t>(4));

    StateReader match(blob);
    match.u64(wide);
    std::vector<std::uint64_t> same(3);
    match.fixedVec(same, asU64);
    EXPECT_TRUE(match.atEnd());
    EXPECT_EQ(same, three);
    match.check(false);
    EXPECT_FALSE(match.ok());
}

class NullMemory : public ICoreMemory
{
  public:
    AccessOutcome
    load(ThreadId, Addr, bool, std::uint64_t) override
    {
        return AccessOutcome::kHit;
    }
    AccessOutcome
    store(ThreadId, Addr, bool) override
    {
        return AccessOutcome::kHit;
    }
};

TEST(SnapshotValidationTest, CoreRejectsHeadAndOccupancyPastTheWindow)
{
    AddressMap mapper(DramSpec::ddr5().org);
    AttackerTrace trace(AttackerConfig{}, mapper, 1);
    NullMemory memory;
    CoreConfig config;
    config.windowSize = 8;
    Core core(0, &trace, &memory, config, false);
    std::string blob = stateBlob(core);
    ASSERT_TRUE(loads(core, blob));

    // Layout: tag u32, window (u64 count + 8 x u64), head, occupancy.
    const std::size_t head = 4 + 8 + 8 * 8;
    const std::size_t occupancy = head + 8;
    ASSERT_TRUE(loads(core, patchU64(blob, head, 7)));
    EXPECT_FALSE(loads(core, patchU64(blob, head, 8)));
    ASSERT_TRUE(loads(core, patchU64(blob, occupancy, 8)));
    EXPECT_FALSE(loads(core, patchU64(blob, occupancy, 9)));
}

TEST(SnapshotValidationTest, AttackerTracesRejectCursorsPastTheirPattern)
{
    AddressMap mapper(DramSpec::ddr5().org);
    AttackerTrace fixed(AttackerConfig{}, mapper, 3);
    AdaptiveAttackerTrace adaptive(AttackerConfig{}, AdaptiveConfig{},
                                   mapper, 3);
    // Layout: tag u32, RNG state u64, bankCursor u64, rowCursor u64.
    const std::size_t bank_cursor = 4 + 8;
    const std::size_t row_cursor = bank_cursor + 8;
    for (TraceSource *t : {static_cast<TraceSource *>(&fixed),
                           static_cast<TraceSource *>(&adaptive)}) {
        std::string blob = stateBlob(*t);
        ASSERT_TRUE(loads(*t, blob)) << t->name();
        EXPECT_FALSE(loads(*t, patchU64(blob, bank_cursor, 1u << 20)))
            << t->name();
        EXPECT_FALSE(loads(*t, patchU64(blob, row_cursor, 1u << 20)))
            << t->name();
    }
}

TEST(SnapshotValidationTest, RngRejectsTheStateXorshiftNeverLeaves)
{
    auto para = createMitigation(MitigationType::kPara, 512,
                                 DramSpec::ddr5(), 4);
    std::string blob = stateBlob(*para);
    ASSERT_TRUE(loads(*para, blob));
    // Layout: tag u32, RNG state u64.
    EXPECT_FALSE(loads(*para, patchU64(blob, 4, 0)));
}

TEST(SnapshotValidationTest, MshrRejectsOwnersAndWaitersOutsideTheThreads)
{
    MshrFile mshr(64, 4);
    mshr.allocate(0x40, 1, false);
    mshr.merge(0x40, MshrWaiter{2, 7, true}, false);
    std::string blob = stateBlob(mshr);
    ASSERT_TRUE(loads(mshr, blob));

    // Layout: tag u32, quotas and inflight (u64 count + 4 x u64 each),
    // map bucket count and size, key, owner, anyStore byte, waiter
    // count, waiter thread.
    const std::size_t owner = 4 + 2 * (8 + 4 * 8) + 8 + 8 + 8;
    const std::size_t waiter_thread = owner + 8 + 1 + 8;
    ASSERT_TRUE(loads(mshr, patchU64(blob, owner, 3)));
    EXPECT_FALSE(loads(mshr, patchU64(blob, owner, 4)));
    ASSERT_TRUE(loads(mshr, patchU64(blob, waiter_thread, 3)));
    EXPECT_FALSE(loads(mshr, patchU64(blob, waiter_thread, 4)));
}

TEST(SnapshotValidationTest, RequestQueueRejectsABadActiveBankList)
{
    BankedRequestQueue queue(4);
    Request req;
    req.flatBank = 1;
    queue.push(req);
    req.flatBank = 2;
    queue.push(req);
    std::string blob = stateBlob(queue);
    ASSERT_TRUE(loads(queue, blob));

    // The blob ends with the active list (u64 count, banks 1 and 2) and
    // the sequence counter.
    const std::size_t second = blob.size() - 16;
    ASSERT_TRUE(loads(queue, patchU64(blob, second, 2)));
    EXPECT_FALSE(loads(queue, patchU64(blob, second, 1))); // Listed twice.
    EXPECT_FALSE(loads(queue, patchU64(blob, second, 3))); // Empty bank.
    EXPECT_FALSE(loads(queue, patchU64(blob, second, 4))); // No such bank.
}

TEST(SnapshotValidationTest, ControllerRejectsRequestsOutsideItsGeometry)
{
    DramSpec spec = DramSpec::ddr5();
    AddressMap mapper(spec.org);
    MemoryController mc(spec, mapper, McConfig{});
    Request req;
    req.addr = 0x12345640;
    req.thread = 1;
    req.token = 0x0123456789abcdefull; // Marks the request in the blob.
    mc.enqueueRead(req, 0);
    std::string blob = stateBlob(mc);
    ASSERT_TRUE(loads(mc, blob));

    // A request ends ..., row, column, flatBank, thread, cycle, token.
    StateWriter marker;
    marker.u64(req.token);
    const std::size_t token = blob.find(marker.data());
    ASSERT_NE(token, std::string::npos);
    const std::size_t flat_bank = token - 24;
    const std::size_t row = token - 40;
    EXPECT_FALSE(
        loads(mc, patchU64(blob, flat_bank, spec.org.totalBanks())));
    EXPECT_FALSE(loads(mc, patchU64(blob, row, spec.org.rowsPerBank)));
}

TEST(SnapshotValidationTest, ControllerRejectsBadInFlightReadState)
{
    DramSpec spec = DramSpec::ddr5();
    AddressMap mapper(spec.org);
    MemoryController mc(spec, mapper, McConfig{});
    unsigned completed = 0;
    mc.onReadComplete = [&](const Request &, Cycle) { ++completed; };
    // Two reads in different bank groups overlap: when the first one
    // returns, its slot is free while the second is still in flight.
    Request first;
    first.addr = 0x12345640;
    first.thread = 1;
    first.token = 0x0123456789abcdefull;
    Request second = first;
    DramAddress da = mapper.decode(first.addr);
    da.bankGroup = (da.bankGroup + 1) % spec.org.bankGroups;
    second.addr = mapper.encode(da);
    second.token = 0x0fedcba987654321ull; // Marks it in the blob.
    mc.enqueueRead(first, 0);
    mc.enqueueRead(second, 0);
    for (Cycle now = 0; completed == 0 && now < 100000; ++now)
        mc.tick(now);
    ASSERT_EQ(completed, 1u);
    std::string blob = stateBlob(mc);
    ASSERT_TRUE(loads(mc, blob));

    // The in-flight reads end with the second one's token and uncached
    // byte; then come the free slots (u64 count, slot 0) and the
    // completions (u64 count, readyAt, index 1).
    auto u64At = [&](std::size_t offset) {
        StateReader r(blob.substr(offset, 8));
        std::uint64_t v = 0;
        r.u64(v);
        return v;
    };
    StateWriter marker;
    marker.u64(second.token);
    const std::size_t token = blob.find(marker.data());
    ASSERT_NE(token, std::string::npos);
    const std::size_t free_count = token + 8 + 1;
    const std::size_t free_slot = free_count + 8;
    const std::size_t ready_count = free_slot + 8;
    const std::size_t ready_index = ready_count + 8 + 8;
    ASSERT_EQ(u64At(free_count), 1u);
    ASSERT_EQ(u64At(free_slot), 0u);
    ASSERT_EQ(u64At(ready_count), 1u);
    ASSERT_EQ(u64At(ready_index), 1u);

    // Two reads occupy slots 0 and 1.
    ASSERT_TRUE(loads(mc, patchU64(blob, free_slot, 1)));
    EXPECT_FALSE(loads(mc, patchU64(blob, free_slot, 2)));
    ASSERT_TRUE(loads(mc, patchU64(blob, ready_index, 0)));
    EXPECT_FALSE(loads(mc, patchU64(blob, ready_index, 2)));
    // An in-flight request ends ..., row, column, flatBank, thread,
    // cycle, token.
    EXPECT_FALSE(
        loads(mc, patchU64(blob, token - 40, spec.org.rowsPerBank)));
}

TEST(SnapshotValidationTest, TimingEngineRejectsAFawHeadPastItsWindow)
{
    DramSpec spec = DramSpec::ddr5();
    TimingEngine engine(spec);
    std::string blob = stateBlob(engine);
    ASSERT_TRUE(loads(engine, blob));

    // Layout: tag u32, banks (u64 count + 41 bytes each), ranks (u64
    // count, then lastAct, lastActBankGroup, hasLastAct byte, four FAW
    // cycles, fawCount, fawHead, ...).
    const std::size_t faw_head =
        4 + 8 + 41 * std::size_t{spec.org.totalBanks()} + 8 + 8 + 8 + 1 +
        4 * 8 + 8;
    ASSERT_TRUE(loads(engine, patchU64(blob, faw_head, 3)));
    EXPECT_FALSE(loads(engine, patchU64(blob, faw_head, 4)));
}

TEST(SnapshotValidationTest, HydraRejectsADuplicatedCacheEntry)
{
    DramSpec spec = DramSpec::ddr5();
    Hydra hydra(512, spec);
    RecordingHost host;
    hydra.setHost(&host);
    Cycle cycle = 0;
    driveMechanism(&hydra, spec, 123, 0, 6000, &cycle);
    ASSERT_GE(hydra.rccMisses(), 2u); // The RCC holds at least two keys.
    std::string blob = stateBlob(hydra);
    ASSERT_TRUE(loads(hydra, blob));
    ASSERT_TRUE(loads(hydra, patchU64(blob, blob.size() - 8, ~0ull)));

    // The blob ends with the RCC's LRU list: duplicate its last key.
    StateReader tail(blob.substr(blob.size() - 16));
    std::uint64_t second_last = tail.u64();
    EXPECT_FALSE(loads(hydra, patchU64(blob, blob.size() - 8, second_last)));
}

} // namespace
} // namespace bh
