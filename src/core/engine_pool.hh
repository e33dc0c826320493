/**
 * @file
 * The multithreaded checking mechanism (paper §4.4, Fig. 8): traces
 * sealed by the program under test are dispatched to a pool of worker
 * threads, each running its own Engine; results flow back to a shared
 * result collector. PMTest_GET_RESULT() maps to drain(). A
 * zero-worker pool checks traces inline on the caller — the
 * configuration used by the decoupling ablation.
 *
 * Dispatch architecture:
 *  - Each worker owns a FIFO trace queue. Submission places traces
 *    round-robin, but an idle worker *steals* from the most-loaded
 *    peer — half the victim's backlog per scan (one runs immediately,
 *    the rest requeue on the thief and stay stealable), so one giant
 *    trace no longer serializes a whole queue of small traces behind
 *    it and deep backlogs rebalance in O(log) scans instead of one
 *    scan per trace.
 *  - Queues are bounded: explicitly (PoolOptions::queueCapacity), via
 *    the PMTEST_QUEUE_CAP environment variable, or by a default
 *    derived from the worker count (a fixed total backlog divided
 *    across queues). A full queue blocks the producer — bounded
 *    backpressure instead of unbounded memory growth when the
 *    program outruns its checkers.
 *  - Parked workers are woken by backlog, not per trace. A worker
 *    parks only once every queue is empty. A submit that finds no
 *    parked worker returns after a fence and one atomic load — an
 *    awake worker scans every queue before it parks. Otherwise the submitted ops
 *    accrue until kWakeOps of them are queued unwoken, and only then
 *    does the producer take the wakeup mutex and wake one worker. So
 *    a queued trace waits for at most kWakeOps ops of later
 *    submissions, a producer about to block on a full queue, or a
 *    drain. Threads that wait on the pool — a producer about to
 *    block, a caller of drain()/results()/takeResults()/
 *    clearResults() — register first, wake on entry, and make every
 *    submit wake while they wait; the destructor wakes all. One rule
 *    covers submit(), submitBatch() and the requeue of stolen
 *    traces.
 *  - submitBatch() enqueues many small traces under one queue lock
 *    acquisition, amortizing dispatch overhead (the paper's §4.2
 *    "divide the program into sections for better testing speed").
 *  - stats() snapshots queue depths, steal counts, producer stall
 *    time and per-worker throughput, so the Fig. 10/11 harnesses can
 *    report *why* a configuration is fast.
 */

#ifndef PMTEST_CORE_ENGINE_POOL_HH
#define PMTEST_CORE_ENGINE_POOL_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "obs/metrics_doc.hh"
#include "trace/concurrent_queue.hh"

namespace pmtest::core
{

/** EnginePool construction parameters. */
struct PoolOptions
{
    /** Persistency model all engines use. */
    ModelKind model = ModelKind::X86;
    /** Number of worker threads; 0 = inline checking. */
    size_t workers = 1;
    /** queueCapacity value requesting an explicitly unbounded queue. */
    static constexpr size_t kUnboundedQueue = ~size_t{0};
    /**
     * Per-worker queue capacity in traces. 0 = automatic: the
     * PMTEST_QUEUE_CAP environment variable if it parses as a whole
     * number (0 there means unbounded), else a default derived from
     * the worker count — a fixed total backlog divided across the
     * queues, so adding workers does not grow the in-flight trace
     * count.
     * kUnboundedQueue requests no bound at all.
     */
    size_t queueCapacity = 0;
};

/** The dispatch counters live in obs, where the publisher samples them. */
using WorkerStats = obs::WorkerStats;
using IngestStats = obs::IngestStats;
using PoolStats = obs::PoolStats;

/** Dispatches traces to engine workers and aggregates reports. */
class EnginePool
{
  public:
    /**
     * Queued ops that wake a parked worker without a drain: about
     * 1 ms of checking at the kernel's ~15 Mops/s, so an idle pool
     * costs the producer one futex wake per millisecond of work
     * instead of one per trace.
     */
    static constexpr uint64_t kWakeOps = 16384;

    explicit EnginePool(const PoolOptions &options);

    /**
     * Convenience constructor kept source-compatible with the
     * original round-robin pool.
     * @param kind persistency model all engines use
     * @param workers number of worker threads; 0 = inline checking
     */
    EnginePool(ModelKind kind, size_t workers);

    /** Stops workers; pending traces are drained first. */
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Submit one trace for checking (PMTest_SEND_TRACE). Blocks when
     * the target queue is full (bounded mode); checks inline when the
     * pool has no workers.
     */
    void submit(Trace trace);

    /**
     * Submit a batch of traces as one dispatch unit: one queue lock
     * acquisition, and the batch's ops count toward the wake mark
     * once. The traces remain individually stealable once queued.
     */
    void submitBatch(std::vector<Trace> traces);

    /**
     * Block until every submitted trace has been checked
     * (PMTest_GET_RESULT).
     */
    void drain();

    /**
     * Merged findings of all traces checked so far. Implies drain();
     * the wait and the snapshot happen in one critical section, so
     * the returned report is exactly the drained state even when
     * other threads keep submitting. This copies the aggregate; a
     * caller that reads the results once should use takeResults().
     */
    Report results();

    /** Drop accumulated findings (between test phases). */
    void clearResults();

    /**
     * Atomically drain, snapshot and reset: the returned report
     * contains every finding not returned by a previous take, and
     * concurrent submitters cannot slip findings into the gap (they
     * are either in this snapshot or in the next one).
     */
    Report takeResults();

    /**
     * Dispatch statistics snapshot, carrying the counters of the last
     * ingest() into this pool (see recordIngest).
     */
    PoolStats stats() const;

    /** Keep @p ingest for stats(); core::ingest() calls this. */
    void recordIngest(const IngestStats &ingest);

    /** Number of worker threads (0 = inline mode). */
    size_t workerCount() const { return workers_.size(); }

    /** Per-worker queue capacity (0 = unbounded). */
    size_t queueCapacity() const { return queueCapacity_; }

    /** Total traces checked so far. */
    uint64_t tracesChecked() const;

    /** Total PM operations processed so far. */
    uint64_t opsProcessed() const;

  private:
    struct Worker
    {
        explicit Worker(size_t queue_capacity) : queue(queue_capacity) {}

        std::unique_ptr<Engine> engine;
        ConcurrentQueue<Trace> queue;
        std::thread thread;
        std::atomic<uint64_t> opsProcessed{0};
        std::atomic<uint64_t> tracesChecked{0};
        std::atomic<uint64_t> steals{0};
        std::atomic<uint64_t> stealScans{0};
    };

    void workerLoop(Worker &worker);
    /**
     * Steal up to half the most-loaded peer's queue into @p out.
     * @return the number of traces stolen (0 when no peer has work).
     */
    size_t stealFrom(const Worker &thief, std::vector<Trace> &out);
    /** Process one trace on @p worker and record its report. */
    void checkOn(Worker &worker, Trace trace);
    void recordResult(Report report);
    /**
     * The wake rule, run after @p ops ops were queued: wake one
     * parked worker once the unwoken backlog reaches kWakeOps, at
     * once when @p force is set or a thread waits on the pool.
     */
    void notifyWork(uint64_t ops, bool force = false);
    /**
     * Push @p trace onto @p target's queue, blocking while it is
     * full, as a registered waiter.
     */
    void pushBlocking(Worker &target, Trace trace);
    /**
     * Wait for every submitted trace to be checked, as a registered
     * waiter. @return the held result lock.
     */
    std::unique_lock<std::mutex> waitDrained();
    /** True when any queue holds work (racy; wakeup predicate). */
    bool anyQueued() const;
    void checkInline(Trace trace);

    ModelKind kind_;
    size_t queueCapacity_ = 0;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Engine> inlineEngine_; ///< used when workers_ empty
    std::atomic<size_t> nextWorker_{0};    ///< round-robin cursor
    mutable std::mutex inlineMutex_;       ///< guards inline engine

    std::mutex workMutex_; ///< wakeup coordination for idle workers
    std::condition_variable workCv_;
    bool stopping_ = false; ///< guarded by workMutex_
    /** Workers waiting on workCv_ (changed under workMutex_). */
    std::atomic<size_t> parked_{0};
    /**
     * Threads waiting on the pool — in a drain, or blocked on a full
     * queue; while any is registered, every submit wakes.
     */
    std::atomic<size_t> waiters_{0};
    /** Ops queued while a worker was parked, since the last wake. */
    std::atomic<uint64_t> unwokenOps_{0};

    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> stallNanos_{0};

    mutable std::mutex resultMutex_;
    std::condition_variable drainCv_;
    Report aggregate_;
    uint64_t submitted_ = 0; ///< guarded by resultMutex_
    uint64_t completed_ = 0; ///< guarded by resultMutex_
    IngestStats ingest_;     ///< guarded by resultMutex_
};

} // namespace pmtest::core

#endif // PMTEST_CORE_ENGINE_POOL_HH
