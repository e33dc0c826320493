/**
 * @file
 * The multithreaded checking mechanism (paper §4.4, Fig. 8): traces
 * are checked by a pool of worker threads, each running its own
 * Engine; results flow into one shared aggregate. PMTest_GET_RESULT()
 * maps to drain(). A zero-worker pool checks on the caller — the
 * configuration used by the decoupling ablation.
 *
 * Two ways in, one per kind of producer:
 *  - checkSource() — offline checking (core::ingest). The source can
 *    hand any thread any whole trace, so there is nothing to queue:
 *    every worker, and a number of threads on the caller's side,
 *    loops claiming the next trace from the source and decoding it
 *    through a fixed window straight into its own engine, until the
 *    source ends. No queue, wakes or backpressure; each thread holds
 *    one decode window, not traces. A lane keeps the reports that
 *    have findings in its own list, taking no shared lock per trace
 *    (the trace counters stay live: stats() counts each trace as it
 *    finishes). When the source is spent, the reports are sorted by
 *    (fileId, traceId, index within the source) and moved into the
 *    aggregate once, sized up front — already in canonical order, so
 *    Report::canonicalize has nothing to move, and traces that share
 *    an id keep the order a serial pass gives them.
 *  - submit() — live capture (api.cc), where the application thread
 *    produces the traces and must hand them off:
 *     - Every worker pops the one FIFO trace queue, so an idle worker
 *       takes the next trace and one giant trace cannot serialize the
 *       small traces queued behind it.
 *     - The queue is bounded (PoolOptions::queueCapacity, by default
 *       the paper's 1,024 traces, §4.5). A full queue blocks the
 *       producer — bounded backpressure instead of unbounded memory
 *       growth when the program outruns its checkers.
 *     - Parked workers are woken by backlog, not per trace. A worker
 *       parks only once the queue is empty. A submit that finds no
 *       parked worker returns after a fence and one atomic load — an
 *       awake worker looks at the queue before it parks. Otherwise
 *       the submitted ops accrue until kWakeOps of them are queued
 *       unwoken, and only then does the producer take the wakeup
 *       mutex and wake one worker. So a queued trace waits for at
 *       most kWakeOps ops of later submissions, a producer about to
 *       block on a full queue, or a drain. Threads that wait on the
 *       pool — a producer about to block, a caller of drain()/
 *       results()/takeResults()/clearResults() — register first,
 *       wake every parked worker on entry, and make every submit
 *       wake one while they wait; the destructor wakes all.
 *  - stats() snapshots per-thread throughput (workers, then the
 *    caller-side source lanes), the queue depth and producer stall
 *    time, so the Fig. 10/11 harnesses can report *why* a
 *    configuration is fast.
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
#include "trace/trace_source.hh"

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
    /** Default queue bound: the paper's 1,024-entry FIFO (§4.5). */
    static constexpr size_t kDefaultQueueCapacity = 1024;
    /**
     * Bound of the live trace queue, in traces, shared by all
     * workers. 0 = kDefaultQueueCapacity; kUnboundedQueue requests no
     * bound at all.
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
     * Convenience constructor: default options but for the model
     * and the worker count.
     * @param kind persistency model all engines use
     * @param workers number of worker threads; 0 = inline checking
     */
    EnginePool(ModelKind kind, size_t workers);

    /** Stops workers; pending traces are drained first. */
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Submit one trace for checking (PMTest_SEND_TRACE). Blocks while
     * the queue is full (bounded mode); checks inline when the pool
     * has no workers.
     */
    void submit(Trace trace);

    /**
     * Check every trace @p source yields: each worker, and @p callers
     * threads on this side (the calling thread is the first), loops
     * claiming the next trace from the source and running it through
     * its own engine, until the source ends or any thread hits a
     * source error. Then the finished traces' findings are placed in
     * the aggregate by (fileId, traceId, index within the source).
     * Returns once every thread has stopped and the findings are
     * placed; a failed trace adds no findings, traces completed
     * before the failure keep theirs. One source job runs at a time
     * (concurrent calls serialize). Adds the traces claimed and the
     * decode time to @p stats when non-null.
     * @return false on a source error (the first one copied to
     *         @p error when provided).
     */
    bool checkSource(TraceSource &source, size_t callers,
                     IngestStats *stats, SourceError *error);

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

    /** Queue capacity in traces (0 = unbounded). */
    size_t queueCapacity() const { return queueCapacity_; }

    /** Total traces checked so far (workers and source lanes). */
    uint64_t tracesChecked() const;

    /** Total PM operations processed so far. */
    uint64_t opsProcessed() const;

  private:
    /** A checking thread's engine and its published counters. */
    struct Lane
    {
        std::unique_ptr<Engine> engine;
        std::atomic<uint64_t> opsProcessed{0};
        std::atomic<uint64_t> tracesChecked{0};

        /** Copy the engine's counters for stats() (owner thread). */
        void publish();
        /** Snapshot for stats(). */
        WorkerStats snapshot() const;
    };

    struct Worker : Lane
    {
        std::thread thread;
        /** Epoch of the last source job joined (under workMutex_). */
        uint64_t jobEpoch = 0;
    };

    /** A source job's finished trace: its report and source index. */
    struct Finished
    {
        size_t index;
        Report report;
    };

    struct SourceJob;

    void workerLoop(Worker &worker);
    /**
     * If a source job is posted that @p worker has not joined, join
     * it (under workMutex_). @return the job, or null.
     */
    SourceJob *joinJob(Worker &worker);
    /** Claim and check traces of @p job on @p lane until it ends. */
    void runLane(Lane &lane, SourceJob &job);
    /** The first @p n caller-side lanes, created on demand. */
    std::vector<Lane *> callerLanes(size_t n);
    /** Traces and ops checked, summed over every lane. */
    WorkerStats totals() const;
    /** Merge one submitted trace's report. */
    void recordResult(Report report);
    /**
     * The wake rule, run after @p ops ops were queued: wake one
     * parked worker once the unwoken backlog reaches kWakeOps, at
     * once when a thread waits on the pool; wake every parked worker
     * when @p force is set (a thread starts waiting).
     */
    void notifyWork(uint64_t ops, bool force = false);
    /**
     * Wait for every submitted trace to be checked, as a registered
     * waiter. @return the held result lock.
     */
    std::unique_lock<std::mutex> waitDrained();

    ModelKind kind_;
    size_t queueCapacity_ = 0;
    /** Submitted traces every worker pops (unused inline). */
    ConcurrentQueue<Trace> queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Lane> inlineLane_;  ///< used when workers_ empty
    std::mutex inlineMutex_;            ///< guards the inline engine

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

    std::atomic<uint64_t> stallNanos_{0};

    mutable std::mutex resultMutex_;
    std::condition_variable drainCv_;
    Report aggregate_;
    uint64_t submitted_ = 0; ///< guarded by resultMutex_
    uint64_t completed_ = 0; ///< guarded by resultMutex_
    /** Traces source jobs checked: submitted and completed at once. */
    std::atomic<uint64_t> claimed_{0};
    IngestStats ingest_;     ///< guarded by resultMutex_

    std::mutex jobMutex_;        ///< one source job at a time
    SourceJob *job_ = nullptr;   ///< posted job; guarded by workMutex_
    uint64_t jobEpoch_ = 0;      ///< guarded by workMutex_
    size_t jobWorkers_ = 0;      ///< workers inside job_ (workMutex_)
    std::condition_variable jobCv_; ///< jobWorkers_ dropped to 0
    mutable std::mutex lanesMutex_; ///< guards callerLanes_ growth
    /** Source-job lanes of the calling side; never shrinks. */
    std::vector<std::unique_ptr<Lane>> callerLanes_;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_ENGINE_POOL_HH
