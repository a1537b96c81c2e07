/**
 * @file
 * Sweep-service worker: lease, simulate, report, repeat.
 *
 * A SweepWorker connects to a SweepCoordinator (retrying with capped
 * exponential backoff — a worker may come up before its coordinator, or
 * outlive a coordinator restart), keeps up to `jobs` leases in flight
 * across that many compute threads, and for each lease runs the leased
 * ExperimentConfig through the ordinary runExperiment() path — so the
 * worker's checkpoint policy (WorkerOptions::checkpoint) applies
 * unchanged: a worker started with --checkpoint-every snapshots mid-run,
 * and a re-leased unit landing back on the same worker resumes from its
 * snapshot instead of starting over.
 *
 * Each compute thread runs its leases with its own RunOptions: the
 * progress hook fires at an instruction cadence, in the leased
 * simulation and in any solo-IPC runs its denominators still need, and
 * sends a wall-clock-rate-limited heartbeat for the lease, so the
 * coordinator keeps it alive; the solo sink forwards the solo-IPC
 * denominators the thread computes as `solo` records.
 *
 * One I/O thread owns the socket (the compute threads only append
 * encoded frames to an outbox); frames still queued when the connection
 * drops survive the reconnect, so a finished result is not lost to a
 * coordinator hiccup. A result that IS lost in flight is covered by the
 * lease deadline: the coordinator requeues the unit and some worker —
 * possibly this one, from its snapshot — redoes it.
 *
 * The I/O thread sleeps in poll() on the socket and a WakeFd, with no
 * timeout. Every other thread signals the WakeFd after each change the
 * I/O thread acts on: a queued frame, a freed compute slot, a stop
 * request. A finished unit signals after it releases its slot
 * (`--inflight`), or the I/O thread could wake, find no free slot, and
 * sleep again without asking for the next lease.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.h"
#include "svc/frame.h"
#include "svc/net.h"

namespace bh::svc {

/** Worker tuning. */
struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Compute threads == leases kept in flight. */
    unsigned jobs = 1;
    /** Reported to the coordinator for the /metrics worker label. */
    std::string name;
    /** Progress-hook cadence in retired instructions per benign core. */
    std::uint64_t heartbeatEveryInsts = 2000;
    /** Wall-clock floor between heartbeats of one compute thread. */
    std::uint64_t heartbeatMinIntervalMs = 500;
    /** Reconnect backoff doubles from 250 ms up to this cap. */
    std::uint64_t maxBackoffMs = 10000;
    /**
     * Give up after this many consecutive failed connection attempts
     * (the coordinator is gone, not busy). 0 = retry forever.
     */
    unsigned maxConnectFailures = 60;
    /** Mid-run snapshots of every leased simulation; off by default. */
    CheckpointSpec checkpoint;
};

/** One coordinator-driven sweep worker (see file comment). */
class SweepWorker
{
  public:
    explicit SweepWorker(WorkerOptions options);

    SweepWorker(const SweepWorker &) = delete;
    SweepWorker &operator=(const SweepWorker &) = delete;

    /**
     * Connect and work until the coordinator says `done`. Blocks; this
     * is the worker's whole life. @return false (with @p error set) on a
     * protocol error, a coordinator-reported error, or connect give-up.
     * Work completed before a failure has already been reported.
     */
    bool run(std::string *error);

    /**
     * Ask a run() on another thread to wind down. A connected worker
     * stops at once; one waiting out a reconnect backoff stops when the
     * backoff ends.
     */
    void requestStop()
    {
        stopRequested.store(true);
        wake.signal();
    }

    /** Units this worker simulated and reported. */
    std::size_t completedUnits() const { return completedCount.load(); }

  private:
    struct Lease
    {
        std::string key;
        ExperimentConfig config;
    };

    /** Compute-thread body: pop leases, simulate, queue results. */
    void computeLoop();

    /** Append one encoded frame to the outbox (any thread). */
    void queueFrame(const JsonValue &msg);

    /** Connect to the coordinator; -1 on failure. */
    int connectOnce(std::string *error);

    /** One connection's lifetime; false = reconnect, true = finished. */
    bool serveConnection(int fd, std::string *error);

    WorkerOptions options;

    // Work queue (I/O thread pushes, compute threads pop).
    std::mutex workMutex;
    std::condition_variable workCv;
    std::deque<Lease> workQueue;
    bool shuttingDown = false;
    /** Leases held: queued or computing. Guarded by workMutex. */
    unsigned inflight = 0;

    // Outbox of encoded frames (compute threads push, I/O thread sends).
    std::mutex outboxMutex;
    std::deque<std::string> outbox;

    /** Wakes the I/O thread's poll (see file comment). */
    WakeFd wake;

    std::atomic<bool> stopRequested{false};
    std::atomic<bool> doneReceived{false};
    std::atomic<std::size_t> completedCount{0};
    std::string fatalError; ///< Set by the I/O thread only.
};

} // namespace bh::svc
