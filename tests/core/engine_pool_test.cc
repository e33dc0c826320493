#include "core/engine_pool.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

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

} // namespace
} // namespace pmtest::core
