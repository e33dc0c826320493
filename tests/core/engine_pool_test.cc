#include "core/engine_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/telemetry.hh"
#include "trace/trace_source.hh"

namespace pmtest::core
{
namespace
{

Trace
buggyTrace(uint64_t id)
{
    Trace t(id, 0);
    t.append(PmOp::write(0x10, 64));
    t.append(PmOp::isPersist(0x10, 64)); // fails: never flushed
    return t;
}

Trace
cleanTrace(uint64_t id)
{
    Trace t(id, 0);
    t.append(PmOp::write(0x10, 64));
    t.append(PmOp::clwb(0x10, 64));
    t.append(PmOp::sfence());
    t.append(PmOp::isPersist(0x10, 64));
    return t;
}

/** @p ops ops ending in one failing isPersist check. */
Trace
buggyTraceOfSize(uint64_t id, size_t ops)
{
    Trace t(id, 0);
    for (size_t i = 0; i + 1 < ops; i++)
        t.append(PmOp::write(0x1000 + 64 * (i % 256), 8));
    t.append(PmOp::isPersist(0x1000, 8));
    return t;
}

uint64_t
poolWakes()
{
    return obs::Telemetry::instance().metrics().counter(
        obs::Counter::PoolWakes);
}

/**
 * Run @p body on its own thread and give it @p seconds. A wake-rule
 * regression strands a waiter forever, so a missed deadline ends the
 * test binary with a failure instead of hanging it (the stuck thread
 * cannot be joined).
 */
void
withDeadline(const char *what, std::function<void()> body,
             std::chrono::seconds seconds = std::chrono::seconds(60))
{
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::thread runner([&] {
        body();
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
        done_cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mutex);
    if (!done_cv.wait_for(lock, seconds, [&] { return done; })) {
        std::fprintf(stderr, "deadline exceeded: %s\n", what);
        std::fflush(stderr);
        std::_Exit(1);
    }
    lock.unlock();
    runner.join();
}

/** Give a fresh pool's workers time to find no work and park. */
void
letWorkersPark()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(EnginePoolTest, SingleWorkerChecksAllTraces)
{
    EnginePool pool(ModelKind::X86, 1);
    for (uint64_t i = 0; i < 10; i++)
        pool.submit(i % 2 ? buggyTrace(i) : cleanTrace(i));
    const Report report = pool.results();
    EXPECT_EQ(report.failCount(), 5u);
    EXPECT_EQ(pool.tracesChecked(), 10u);
}

TEST(EnginePoolTest, MultipleWorkersRoundRobin)
{
    EnginePool pool(ModelKind::X86, 4);
    EXPECT_EQ(pool.workerCount(), 4u);
    for (uint64_t i = 0; i < 40; i++)
        pool.submit(buggyTrace(i));
    const Report report = pool.results();
    EXPECT_EQ(report.failCount(), 40u);
    EXPECT_EQ(pool.tracesChecked(), 40u);
}

TEST(EnginePoolTest, InlineModeChecksSynchronously)
{
    EnginePool pool(ModelKind::X86, 0);
    EXPECT_EQ(pool.workerCount(), 0u);
    pool.submit(buggyTrace(1));
    // No drain needed: inline checking completes inside submit().
    EXPECT_EQ(pool.tracesChecked(), 1u);
    EXPECT_EQ(pool.results().failCount(), 1u);
}

TEST(EnginePoolTest, DrainBlocksUntilComplete)
{
    EnginePool pool(ModelKind::X86, 2);
    for (uint64_t i = 0; i < 100; i++)
        pool.submit(cleanTrace(i));
    pool.drain();
    EXPECT_EQ(pool.tracesChecked(), 100u);
}

TEST(EnginePoolTest, ClearResultsResets)
{
    EnginePool pool(ModelKind::X86, 1);
    pool.submit(buggyTrace(1));
    EXPECT_EQ(pool.results().failCount(), 1u);
    pool.clearResults();
    EXPECT_EQ(pool.results().failCount(), 0u);
    pool.submit(buggyTrace(2));
    EXPECT_EQ(pool.results().failCount(), 1u);
}

TEST(EnginePoolTest, DestructorDrainsPendingWork)
{
    Report report;
    {
        EnginePool pool(ModelKind::X86, 2);
        for (uint64_t i = 0; i < 50; i++)
            pool.submit(cleanTrace(i));
        // Destructor must not lose queued traces.
    }
    SUCCEED();
}

TEST(EnginePoolTest, OpsProcessedAggregates)
{
    EnginePool pool(ModelKind::X86, 2);
    pool.submit(cleanTrace(1)); // 4 ops
    pool.submit(cleanTrace(2)); // 4 ops
    pool.drain();
    EXPECT_EQ(pool.opsProcessed(), 8u);
}

TEST(EnginePoolTest, StatsCountersAreConsistent)
{
    PoolOptions options;
    options.workers = 3;
    options.queueCapacity = 128;
    EnginePool pool(options);

    for (uint64_t i = 0; i < 30; i++)
        pool.submit(i % 2 ? buggyTrace(i) : cleanTrace(i));
    pool.drain();

    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.workers.size(), 3u);
    EXPECT_EQ(stats.tracesSubmitted, 30u);
    EXPECT_EQ(stats.tracesCompleted, 30u);
    EXPECT_EQ(stats.queueCapacity, 128u);
    EXPECT_EQ(stats.queuedTraces, 0u); // drained

    uint64_t checked = 0, ops = 0;
    for (const auto &w : stats.workers) {
        checked += w.tracesChecked;
        ops += w.opsProcessed;
    }
    EXPECT_EQ(checked, 30u);
    EXPECT_EQ(ops, pool.opsProcessed());
    EXPECT_FALSE(stats.str().empty());
}

TEST(EnginePoolTest, InlineModeStatsReportOnePseudoWorker)
{
    EnginePool pool(ModelKind::X86, 0);
    pool.submit(cleanTrace(1));
    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.workers.size(), 1u);
    EXPECT_EQ(stats.workers[0].tracesChecked, 1u);
    EXPECT_EQ(stats.tracesSubmitted, 1u);
    EXPECT_EQ(stats.tracesCompleted, 1u);
}

TEST(EnginePoolTest, DefaultCapacityDerivedFromWorkerCount)
{
    // The default is the paper's 1,024-entry FIFO for the whole pool:
    // one queue, so the bound is the same at every worker count.
    EXPECT_EQ(PoolOptions::kDefaultQueueCapacity, 1024u);
    for (size_t workers : {1, 4}) {
        EXPECT_EQ(EnginePool(ModelKind::X86, workers).queueCapacity(),
                  PoolOptions::kDefaultQueueCapacity);
    }

    // An explicitly unbounded queue is still available.
    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = PoolOptions::kUnboundedQueue;
    EXPECT_EQ(EnginePool(options).queueCapacity(), 0u);
}

TEST(EnginePoolTest, ExplicitCapacityBeatsEnvironment)
{
    // The capacity comes only from PoolOptions; nothing in the
    // environment overrides an explicit value.
    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = 3;
    EXPECT_EQ(EnginePool(options).queueCapacity(), 3u);
}

TEST(EnginePoolTest, TakeResultsReturnsAndResets)
{
    EnginePool pool(ModelKind::X86, 1);
    pool.submit(buggyTrace(1));
    EXPECT_EQ(pool.takeResults().failCount(), 1u);
    EXPECT_EQ(pool.results().failCount(), 0u);
    pool.submit(buggyTrace(2));
    EXPECT_EQ(pool.takeResults().failCount(), 1u);
}

TEST(EnginePoolTest, SmallTracesWakeByBacklogNotPerTrace)
{
    // Unbounded, so no producer ever blocks: only the backlog mark
    // and the final results() may wake the parked worker.
    PoolOptions options;
    options.workers = 1;
    options.queueCapacity = PoolOptions::kUnboundedQueue;
    EnginePool pool(options);
    letWorkersPark();

    constexpr size_t kTraces = 1000;
    constexpr size_t kOpsPerTrace = 50;
    const uint64_t wakes_before = poolWakes();
    withDeadline("backlog-woken results()", [&] {
        for (uint64_t i = 0; i < kTraces; i++)
            pool.submit(buggyTraceOfSize(i, kOpsPerTrace));
        EXPECT_EQ(pool.results().failCount(), kTraces);
    });
    const uint64_t total_ops = kTraces * kOpsPerTrace;
    const uint64_t mark_wakes =
        (total_ops + EnginePool::kWakeOps - 1) / EnginePool::kWakeOps;
    EXPECT_LE(poolWakes() - wakes_before, mark_wakes + 1);
    EXPECT_EQ(pool.tracesChecked(), kTraces);
}

TEST(EnginePoolTest, TraceAtTheMarkIsCheckedWithoutDrain)
{
    EnginePool pool(ModelKind::X86, 1);
    letWorkersPark();
    pool.submit(buggyTraceOfSize(1, EnginePool::kWakeOps));
    withDeadline("check of a kWakeOps-op trace without a drain", [&] {
        while (pool.tracesChecked() < 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    EXPECT_EQ(pool.opsProcessed(), EnginePool::kWakeOps);
    EXPECT_EQ(pool.results().failCount(), 1u);
}

TEST(EnginePoolTest, DrainWakesEveryParkedWorker)
{
    // A backlog below the wake mark waits for the drain, which wakes
    // every parked worker, so more than one worker checks it; a
    // single wake would leave it all to one. A round can still end
    // with one worker if it empties the queue before the others run,
    // so a few rounds are allowed.
    constexpr uint64_t kTraces = 8;
    constexpr size_t kOps = EnginePool::kWakeOps / (kTraces + 1);
    bool shared = false;
    for (int round = 0; round < 20 && !shared; round++) {
        EnginePool pool(ModelKind::X86, 4);
        letWorkersPark();
        withDeadline("drain of a backlog below the mark", [&] {
            for (uint64_t i = 0; i < kTraces; i++)
                pool.submit(buggyTraceOfSize(i, kOps));
            pool.drain();
        });
        size_t busy = 0;
        for (const WorkerStats &w : pool.stats().workers)
            busy += w.tracesChecked != 0;
        shared = busy > 1;
    }
    EXPECT_TRUE(shared) << "one worker checked every drained backlog";
}

TEST(EnginePoolTest, ProducerBlockedOnFullQueueWakesParkedWorker)
{
    // Each trace is far below the mark; only the wake a producer
    // issues before it blocks lets the one-slot queue drain.
    PoolOptions options;
    options.workers = 1;
    options.queueCapacity = 1;
    EnginePool pool(options);
    letWorkersPark();
    withDeadline("producer on a one-slot queue", [&] {
        for (uint64_t i = 0; i < 100; i++)
            pool.submit(buggyTrace(i));
    });
    EXPECT_EQ(pool.results().failCount(), 100u);

    // Several producers on a tiny queue: between one producer's wake
    // and its block, the workers may drain, park, and see the queue
    // refilled by the others below the mark. Those submits must wake
    // for the blocked producer.
    PoolOptions many;
    many.workers = 2;
    many.queueCapacity = 2;
    EnginePool shared(many);
    constexpr size_t kProducers = 4;
    constexpr uint64_t kPerProducer = 3000;
    withDeadline("producers on a two-slot queue", [&] {
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; p++) {
            producers.emplace_back([&, p] {
                for (uint64_t i = 0; i < kPerProducer; i++)
                    shared.submit(buggyTrace(p * 10000 + i));
            });
        }
        for (auto &t : producers)
            t.join();
    });
    EXPECT_EQ(shared.results().failCount(), kProducers * kPerProducer);
}

TEST(EnginePoolTest, IdleWorkerTakesTracesQueuedBehindAGiant)
{
    // One giant trace pins the worker that pops it; the small traces
    // queued behind it must be checked by the other worker meanwhile
    // instead of waiting for the giant. A round counts only if every
    // small trace was seen checked while the giant still ran; a host
    // that checks the giant sooner retries with a larger one.
    constexpr uint64_t kSmalls = 200;
    bool conclusive = false;
    for (size_t giant_ops = 4 * EnginePool::kWakeOps;
         !conclusive && giant_ops <= 32 * EnginePool::kWakeOps;
         giant_ops *= 2) {
        EnginePool pool(ModelKind::X86, 2);
        letWorkersPark();
        withDeadline("small traces queued behind a giant", [&] {
            // At least kWakeOps ops: this submit wakes a worker.
            pool.submit(buggyTraceOfSize(0, giant_ops));
            for (uint64_t i = 1; i <= kSmalls; i++)
                pool.submit(buggyTrace(i));
            // The drain wakes the parked worker for the small traces.
            std::thread drainer([&] { pool.drain(); });
            for (;;) {
                const PoolStats stats = pool.stats();
                uint64_t checked = 0;
                bool giant_done = false;
                for (const WorkerStats &w : stats.workers) {
                    checked += w.tracesChecked;
                    giant_done |= w.opsProcessed >= giant_ops;
                }
                if (checked >= kSmalls) {
                    conclusive = !giant_done;
                    break;
                }
                std::this_thread::yield();
            }
            drainer.join();
        });
        if (!conclusive)
            continue;
        // The giant's worker checked the giant alone; the other
        // worker checked every small trace.
        const PoolStats stats = pool.stats();
        ASSERT_EQ(stats.workers.size(), 2u);
        for (const WorkerStats &w : stats.workers) {
            const bool giant = w.opsProcessed >= giant_ops;
            EXPECT_EQ(w.tracesChecked, giant ? 1u : kSmalls);
        }
        EXPECT_EQ(pool.results().failCount(), kSmalls + 1);
    }
    EXPECT_TRUE(conclusive) << "the giant always finished first";
}

TEST(EnginePoolTest, SubmitDuringResultsWakesForTheDrainer)
{
    // Thread A waits in results() while a long trace keeps it
    // waiting; thread B (this one) submits a small trace after A's
    // entry wake. A must return with B's trace checked. A round
    // counts only if the long trace was still unchecked when B's
    // submit returned; a host that checks it sooner retries longer.
    EnginePool pool(ModelKind::X86, 2);
    letWorkersPark();
    uint64_t submitted = 0;
    bool conclusive = false;
    for (size_t long_ops = 16 * EnginePool::kWakeOps;
         !conclusive && long_ops <= 128 * EnginePool::kWakeOps;
         long_ops *= 2) {
        const uint64_t ops_before = pool.opsProcessed();
        pool.submit(buggyTraceOfSize(submitted++, long_ops));
        std::atomic<bool> a_waiting{false};
        Report a_report;
        withDeadline("results() racing a small submit", [&] {
            std::thread a([&] {
                a_waiting.store(true);
                a_report = pool.results();
            });
            while (!a_waiting.load())
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            pool.submit(buggyTrace(submitted++));
            conclusive = pool.opsProcessed() - ops_before < long_ops;
            a.join();
        });
        if (conclusive) {
            EXPECT_EQ(a_report.failCount(), submitted);
        }
    }
    EXPECT_TRUE(conclusive) << "the long trace always finished first";

    // The narrow race: a trace is counted but not yet queued when a
    // drainer's wake runs, and the workers park again. Producers and
    // a taker run through that window many times; every take must
    // return, and no finding may be lost between the takes.
    constexpr size_t kProducers = 4;
    constexpr uint64_t kPerProducer = 2000;
    uint64_t observed = 0;
    withDeadline("takeResults() racing small submits", [&] {
        std::atomic<size_t> done{0};
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; p++) {
            producers.emplace_back([&, p] {
                for (uint64_t i = 0; i < kPerProducer; i++)
                    pool.submit(buggyTrace(1000 * (p + 1) + i));
                done.fetch_add(1);
            });
        }
        while (done.load() < kProducers)
            observed += pool.takeResults().failCount();
        for (auto &t : producers)
            t.join();
        observed += pool.takeResults().failCount();
    });
    EXPECT_EQ(observed, submitted + kProducers * kPerProducer);
}

/** A closed capture source holding @p n buggy traces. */
std::unique_ptr<CaptureTraceSource>
closedSource(uint64_t first_id, size_t n)
{
    auto source = std::make_unique<CaptureTraceSource>();
    for (size_t i = 0; i < n; i++)
        source->push(buggyTrace(first_id + i));
    source->close();
    return source;
}

TEST(EnginePoolTest, SourceJobRunsOnTheCallerOfAnInlinePool)
{
    EnginePool pool(ModelKind::X86, 0);
    auto source = closedSource(0, 5);
    IngestStats ingest;
    ASSERT_TRUE(pool.checkSource(*source, 1, &ingest, nullptr));
    EXPECT_EQ(ingest.tracesDecoded, 5u);
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.tracesSubmitted, 5u);
    EXPECT_EQ(stats.tracesCompleted, 5u);
    // The inline pseudo-worker, then the one caller lane that did
    // the checking.
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_EQ(stats.workers[0].tracesChecked, 0u);
    EXPECT_EQ(stats.workers[1].tracesChecked, 5u);
    EXPECT_EQ(pool.tracesChecked(), 5u);
    EXPECT_EQ(pool.results().failCount(), 5u);
}

TEST(EnginePoolTest, SourceJobsWhileAProducerSubmits)
{
    // Source jobs back to back on one pool — each posted to workers
    // that may be parked, busy with queued live traces, or still
    // leaving the previous job — while another thread keeps
    // submitting: every trace is checked exactly once and every job
    // returns.
    EnginePool pool(ModelKind::X86, 3);
    constexpr uint64_t kSubmitted = 300;
    constexpr size_t kJobs = 20;
    constexpr size_t kPerJob = 10;
    withDeadline("source jobs racing live submits", [&] {
        std::thread producer([&] {
            for (uint64_t i = 0; i < kSubmitted; i++)
                pool.submit(buggyTrace(100000 + i));
        });
        for (size_t job = 0; job < kJobs; job++) {
            auto source = closedSource(job * kPerJob, kPerJob);
            EXPECT_TRUE(
                pool.checkSource(*source, 1 + job % 2, nullptr, nullptr));
        }
        producer.join();
        pool.drain();
    });
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.tracesSubmitted, kSubmitted + kJobs * kPerJob);
    EXPECT_EQ(stats.tracesCompleted, stats.tracesSubmitted);
    EXPECT_EQ(pool.tracesChecked(), stats.tracesSubmitted);
    EXPECT_EQ(pool.takeResults().failCount(), stats.tracesSubmitted);
}

} // namespace
} // namespace pmtest::core
