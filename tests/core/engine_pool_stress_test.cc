/**
 * @file
 * Concurrency stress for the engine pool: many producer threads
 * submitting concurrently, results must aggregate exactly; drains
 * must be safe from any thread; interleaved clear/submit cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/engine_pool.hh"

namespace pmtest::core
{
namespace
{

Trace
traceWithFailures(uint64_t id, size_t n_failures)
{
    Trace t(id, 0);
    for (size_t i = 0; i < n_failures; i++) {
        const uint64_t addr = 0x1000 + 64 * i;
        t.append(PmOp::write(addr, 8));
        t.append(PmOp::isPersist(addr, 8)); // FAIL each time
    }
    return t;
}

TEST(EnginePoolStressTest, ConcurrentProducersAggregateExactly)
{
    constexpr size_t kProducers = 8;
    constexpr size_t kTracesPerProducer = 200;
    constexpr size_t kFailuresPerTrace = 3;

    EnginePool pool(ModelKind::X86, 2);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&pool, p] {
            for (size_t i = 0; i < kTracesPerProducer; i++) {
                pool.submit(traceWithFailures(p * 1000 + i,
                                              kFailuresPerTrace));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    const Report report = pool.results();
    EXPECT_EQ(report.failCount(),
              kProducers * kTracesPerProducer * kFailuresPerTrace);
    EXPECT_EQ(pool.tracesChecked(), kProducers * kTracesPerProducer);
}

TEST(EnginePoolStressTest, DrainWhileSubmittingFromOtherThread)
{
    // A bounded producer runs concurrently with drains from the main
    // thread; every drain must terminate (a drain only waits for the
    // traces submitted before it returns, and the producer finishes).
    EnginePool pool(ModelKind::X86, 2);
    constexpr uint64_t kTraces = 2000;
    std::thread producer([&] {
        for (uint64_t id = 0; id < kTraces; id++)
            pool.submit(traceWithFailures(id, 1));
    });

    for (int i = 0; i < 20; i++)
        pool.drain();

    producer.join();
    pool.drain();
    EXPECT_EQ(pool.tracesChecked(), kTraces);
    EXPECT_EQ(pool.results().failCount(), kTraces);
}

TEST(EnginePoolStressTest, ClearBetweenBatches)
{
    EnginePool pool(ModelKind::X86, 2);
    for (int batch = 0; batch < 10; batch++) {
        for (uint64_t i = 0; i < 20; i++)
            pool.submit(traceWithFailures(i, 2));
        EXPECT_EQ(pool.results().failCount(), 40u)
            << "batch " << batch;
        pool.clearResults();
    }
}

TEST(EnginePoolStressTest, TakeResultsLosesNothingUnderConcurrentSubmit)
{
    // Regression test for the results()/clearResults() race: the
    // original implementation called drain() (releasing the result
    // lock) and then re-acquired it to snapshot/reset, so findings of
    // traces completed in the gap could be wiped without ever being
    // observed. takeResults() folds the wait and the snapshot+reset
    // into one critical section: every finding must be returned by
    // exactly one take.
    constexpr size_t kProducers = 4;
    constexpr size_t kTracesPerProducer = 500;

    EnginePool pool(ModelKind::X86, 2);
    std::atomic<size_t> producers_done{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kTracesPerProducer; i++)
                pool.submit(traceWithFailures(p * 1000 + i, 1));
            producers_done.fetch_add(1, std::memory_order_relaxed);
        });
    }

    // Consume concurrently with the producers: every take races with
    // in-flight submissions, which is exactly the window the original
    // drain-then-relock implementation lost findings in.
    uint64_t observed = 0;
    while (producers_done.load(std::memory_order_relaxed) <
           kProducers) {
        observed += pool.takeResults().failCount();
    }
    for (auto &t : producers)
        t.join();
    observed += pool.takeResults().failCount();

    EXPECT_EQ(observed, kProducers * kTracesPerProducer);
    EXPECT_EQ(pool.results().failCount(), 0u); // everything was taken
}

TEST(EnginePoolStressTest, BoundedQueueExertsBackpressure)
{
    // With capacity 4, the producer can never observe more than 4
    // queued traces, whatever the worker count: a fast producer
    // stalls instead of growing the queue without limit.
    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = 4;
    EnginePool pool(options);

    size_t max_queued = 0;
    for (uint64_t i = 0; i < 500; i++) {
        pool.submit(traceWithFailures(i, 2));
        max_queued = std::max(max_queued, pool.stats().queuedTraces);
    }
    pool.drain();

    EXPECT_LE(max_queued, 4u);
    EXPECT_EQ(pool.results().failCount(), 1000u);
}

TEST(EnginePoolStressTest, BatchedProducersAggregateExactly)
{
    // Producers submit bursts of traces into a queue smaller than one
    // producer's load, so they keep blocking on the full queue while
    // the workers drain it.
    constexpr size_t kProducers = 4;
    constexpr size_t kBatches = 40;
    constexpr size_t kBatchSize = 10;

    PoolOptions options;
    options.workers = 2;
    options.queueCapacity = 16; // smaller than a full producer load
    EnginePool pool(options);

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&pool, p] {
            for (size_t b = 0; b < kBatches; b++) {
                for (size_t i = 0; i < kBatchSize; i++) {
                    pool.submit(traceWithFailures(
                        p * 10000 + b * 100 + i, 1));
                }
            }
        });
    }
    for (auto &t : producers)
        t.join();

    const Report report = pool.results();
    EXPECT_EQ(report.failCount(), kProducers * kBatches * kBatchSize);
    EXPECT_EQ(pool.stats().tracesCompleted, kProducers * kBatches *
                                                kBatchSize);
}

TEST(EnginePoolStressTest, ManySmallTracesThroughput)
{
    // Sanity guard on per-trace bookkeeping: 10k traces must check
    // without blowing up memory or deadlocking.
    EnginePool pool(ModelKind::X86, 1);
    for (uint64_t i = 0; i < 10000; i++) {
        Trace t(i, 0);
        t.append(PmOp::write(0x10, 8));
        t.append(PmOp::clwb(0x10, 8));
        t.append(PmOp::sfence());
        pool.submit(std::move(t));
    }
    pool.drain();
    EXPECT_EQ(pool.tracesChecked(), 10000u);
    EXPECT_EQ(pool.opsProcessed(), 30000u);
    EXPECT_TRUE(pool.results().clean());
}

} // namespace
} // namespace pmtest::core
