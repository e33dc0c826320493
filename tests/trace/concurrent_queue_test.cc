#include "trace/concurrent_queue.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace pmtest
{
namespace
{

TEST(ConcurrentQueueTest, FifoOrder)
{
    ConcurrentQueue<int> q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
}

TEST(ConcurrentQueueTest, TryPopEmpty)
{
    ConcurrentQueue<int> q;
    EXPECT_FALSE(q.tryPop().has_value());
    q.push(5);
    EXPECT_EQ(q.tryPop().value(), 5);
}

TEST(ConcurrentQueueTest, CloseDrainsThenReturnsNullopt)
{
    ConcurrentQueue<int> q;
    q.push(1);
    q.close();
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(ConcurrentQueueTest, PopBlocksUntilPush)
{
    ConcurrentQueue<int> q;
    std::thread producer([&] { q.push(42); });
    EXPECT_EQ(q.pop().value(), 42);
    producer.join();
}

TEST(ConcurrentQueueTest, MultiProducerAllItemsArrive)
{
    ConcurrentQueue<int> q;
    constexpr int kPerThread = 100;
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; t++) {
        producers.emplace_back([&q, t] {
            for (int i = 0; i < kPerThread; i++)
                q.push(t * kPerThread + i);
        });
    }
    for (auto &p : producers)
        p.join();

    std::vector<bool> seen(4 * kPerThread, false);
    for (int i = 0; i < 4 * kPerThread; i++) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_FALSE(seen[*v]);
        seen[*v] = true;
    }
    EXPECT_TRUE(q.empty());
}

TEST(ConcurrentQueueTest, TryPushRespectsCapacity)
{
    ConcurrentQueue<int> q(/*capacity=*/2);
    EXPECT_EQ(q.capacity(), 2u);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(q.tryPush(a));
    EXPECT_TRUE(q.tryPush(b));
    EXPECT_FALSE(q.tryPush(c));
    EXPECT_EQ(c, 3); // rejected item untouched
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_TRUE(q.tryPush(c));
    EXPECT_EQ(q.size(), 2u);
}

TEST(ConcurrentQueueTest, UnboundedTryPushAlwaysSucceeds)
{
    ConcurrentQueue<int> q;
    for (int i = 0; i < 1000; i++) {
        int v = i;
        EXPECT_TRUE(q.tryPush(v));
    }
    EXPECT_EQ(q.size(), 1000u);
}

TEST(ConcurrentQueueTest, PushBlocksWhileFullUntilPop)
{
    // Backpressure: a producer pushing into a full queue must wait
    // for a consumer, and its item must arrive afterwards.
    ConcurrentQueue<int> q(/*capacity=*/1);
    q.push(1);

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2); // blocks until the pop below
        pushed.store(true);
    });

    // Give the producer a chance to block (no reliable way to assert
    // "is blocked"; the FIFO order assertion below is the real check).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(ConcurrentQueueTest, CloseReleasesBlockedProducer)
{
    ConcurrentQueue<int> q(/*capacity=*/1);
    q.push(1);
    std::thread producer([&] { q.push(2); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close(); // must not strand the producer at shutdown
    producer.join();
    // The late item is still enqueued — nothing is lost.
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(ConcurrentQueueTest, ProducerStallsAreCounted)
{
    ConcurrentQueue<int> q(/*capacity=*/1);
    q.push(1);
    EXPECT_EQ(q.producerStalls(), 0u);

    std::thread producer([&] { q.push(2); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();

    EXPECT_EQ(q.producerStalls(), 1u);
    EXPECT_GT(q.producerStallNanos(), 0u);
    // A push with room to spare does not count as a stall.
    q.pop();
    q.push(3);
    EXPECT_EQ(q.producerStalls(), 1u);
}

TEST(ConcurrentQueueTest, WakeMarkHoldsProducerUntilBelowMark)
{
    // Kernel wait-queue hysteresis: a producer blocked on a full
    // 4-slot queue with wake mark 2 stays parked while occupancy is
    // 3 and 2, and resumes only once it drops to 1 (< mark).
    ConcurrentQueue<int> q(/*capacity=*/4, /*wake_mark=*/2);
    EXPECT_EQ(q.wakeMark(), 2u);
    for (int i = 0; i < 4; i++)
        q.push(i);

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(4);
        pushed.store(true);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(q.pop().value(), 0); // depth 3: still parked
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(q.pop().value(), 1); // depth 2: still parked
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(q.pop().value(), 2); // depth 1 < mark: wake
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 4);
    EXPECT_GE(q.producerStalls(), 1u);
}

TEST(ConcurrentQueueTest, PushUnlessClosedDropsAfterShutdown)
{
    ConcurrentQueue<int> q(/*capacity=*/1);
    EXPECT_TRUE(q.pushUnlessClosed(1));

    // A producer parked on the full queue is released by close() and
    // reports failure instead of enqueueing into a dead queue.
    std::thread producer([&] { EXPECT_FALSE(q.pushUnlessClosed(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    producer.join();

    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pushUnlessClosed(3));
}

} // namespace
} // namespace pmtest
