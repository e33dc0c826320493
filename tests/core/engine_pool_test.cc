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

TEST(EnginePoolTest, SubmitBatchChecksEveryTrace)
{
    EnginePool pool(ModelKind::X86, 2);
    std::vector<Trace> batch;
    for (uint64_t i = 0; i < 25; i++)
        batch.push_back(buggyTrace(i));
    pool.submitBatch(std::move(batch));
    pool.submitBatch({}); // empty batch is a no-op
    const Report report = pool.results();
    EXPECT_EQ(report.failCount(), 25u);
    EXPECT_EQ(pool.tracesChecked(), 25u);
    EXPECT_EQ(pool.stats().batchesSubmitted, 1u);
}

TEST(EnginePoolTest, SubmitBatchInlineMode)
{
    EnginePool pool(ModelKind::X86, 0);
    std::vector<Trace> batch;
    for (uint64_t i = 0; i < 5; i++)
        batch.push_back(buggyTrace(i));
    pool.submitBatch(std::move(batch));
    EXPECT_EQ(pool.results().failCount(), 5u);
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
    EXPECT_EQ(stats.queuedTraces(), 0u); // drained

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

TEST(EnginePoolTest, QueueCapacityFromEnvironment)
{
    setenv("PMTEST_QUEUE_CAP", "7", /*overwrite=*/1);
    EnginePool pool(ModelKind::X86, 1);
    EXPECT_EQ(pool.queueCapacity(), 7u);

    // PMTEST_QUEUE_CAP=0 forces an unbounded queue.
    setenv("PMTEST_QUEUE_CAP", "0", /*overwrite=*/1);
    EnginePool unbounded(ModelKind::X86, 1);
    EXPECT_EQ(unbounded.queueCapacity(), 0u);

    // A malformed value is ignored: the worker-derived default
    // applies, so bad input never silently removes backpressure.
    unsetenv("PMTEST_QUEUE_CAP");
    const size_t fallback = EnginePool(ModelKind::X86, 1).queueCapacity();
    ASSERT_GT(fallback, 0u);
    for (const char *bad : {"abc", "-5", "12x", "", " 7", "+7"}) {
        SCOPED_TRACE(bad);
        setenv("PMTEST_QUEUE_CAP", bad, /*overwrite=*/1);
        EnginePool pool_bad(ModelKind::X86, 1);
        EXPECT_EQ(pool_bad.queueCapacity(), fallback);
    }
    unsetenv("PMTEST_QUEUE_CAP");
}

TEST(EnginePoolTest, DefaultCapacityDerivedFromWorkerCount)
{
    // The default bounds the total backlog, splitting it across the
    // per-worker queues: more workers -> shallower queues.
    EnginePool one(ModelKind::X86, 1);
    EnginePool four(ModelKind::X86, 4);
    ASSERT_GT(one.queueCapacity(), 0u);
    ASSERT_GT(four.queueCapacity(), 0u);
    EXPECT_EQ(one.queueCapacity(), 4 * four.queueCapacity());
    EXPECT_GE(four.queueCapacity(), 16u);

    // An explicitly unbounded queue is still available.
    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = PoolOptions::kUnboundedQueue;
    EnginePool unbounded(options);
    EXPECT_EQ(unbounded.queueCapacity(), 0u);
}

TEST(EnginePoolTest, ExplicitCapacityBeatsEnvironment)
{
    setenv("PMTEST_QUEUE_CAP", "7", /*overwrite=*/1);
    PoolOptions options;
    options.workers = 1;
    options.queueCapacity = 3;
    EnginePool pool(options);
    EXPECT_EQ(pool.queueCapacity(), 3u);
    unsetenv("PMTEST_QUEUE_CAP");
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

    // Several producers on tiny queues: between one producer's wake
    // and its block, the workers may drain, park, and see the queue
    // refilled by the others below the mark. Those submits must wake
    // for the blocked producer.
    PoolOptions many;
    many.workers = 2;
    many.queueCapacity = 2;
    EnginePool shared(many);
    constexpr size_t kProducers = 4;
    constexpr uint64_t kBatches = 1000;
    withDeadline("producers on two-slot queues", [&] {
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; p++) {
            producers.emplace_back([&, p] {
                for (uint64_t b = 0; b < kBatches; b++) {
                    std::vector<Trace> batch;
                    for (uint64_t i = 0; i < 3; i++)
                        batch.push_back(buggyTrace(p * 10000 + b * 3 + i));
                    shared.submitBatch(std::move(batch));
                }
            });
        }
        for (auto &t : producers)
            t.join();
    });
    EXPECT_EQ(shared.results().failCount(), kProducers * kBatches * 3);
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

} // namespace
} // namespace pmtest::core
