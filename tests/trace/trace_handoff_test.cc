/**
 * @file
 * Copy-free hand-off guarantees: a trace's op buffer must travel by
 * move from the capture buffer through queues to the checking worker.
 * The tests pin the buffer's data pointer at capture time and assert
 * the same allocation arrives at every later stage.
 */

#include <gtest/gtest.h>

#include <utility>

#include "trace/concurrent_queue.hh"
#include "trace/trace.hh"
#include "trace/trace_capture.hh"

namespace pmtest
{
namespace
{

Trace
makeTrace(uint64_t id, size_t ops)
{
    Trace t(id, 0);
    for (size_t i = 0; i < ops; i++)
        t.append(PmOp::write(64 * i, 64));
    return t;
}

TEST(TraceHandoffTest, MoveStealsTheOpBuffer)
{
    Trace source = makeTrace(1, 100);
    const PmOp *data = source.ops().data();

    Trace byCtor(std::move(source));
    EXPECT_EQ(byCtor.ops().data(), data);

    Trace byAssign;
    byAssign = std::move(byCtor);
    EXPECT_EQ(byAssign.ops().data(), data);
    EXPECT_EQ(byAssign.size(), 100u);
}

TEST(TraceHandoffTest, SealHandsOverTheCaptureBuffer)
{
    TraceCapture capture(3);
    capture.start();
    for (size_t i = 0; i < 200; i++)
        capture.record(PmOp::write(64 * i, 64));

    const PmOp *data = capture.openTrace().ops().data();
    Trace sealed = capture.seal();
    EXPECT_EQ(sealed.ops().data(), data); // stolen, not copied
    EXPECT_EQ(sealed.size(), 200u);
    EXPECT_EQ(sealed.threadId(), 3u);

    // The replacement buffer is pre-sized for the next same-shaped
    // trace: recording 200 more ops must not reallocate.
    EXPECT_GE(capture.openTrace().capacity(), 200u);
    for (size_t i = 0; i < 200; i++)
        capture.record(PmOp::write(64 * i, 64));
    const PmOp *second = capture.openTrace().ops().data();
    EXPECT_EQ(capture.seal().ops().data(), second);
}

TEST(TraceHandoffTest, QueueTransportPreservesTheBuffer)
{
    ConcurrentQueue<Trace> queue;
    Trace t = makeTrace(7, 150);
    const PmOp *data = t.ops().data();

    queue.push(std::move(t));
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->ops().data(), data);
    EXPECT_EQ(popped->size(), 150u);
}

TEST(TraceHandoffTest, AppendGrowsInChunksFromInitialCapacity)
{
    Trace t;
    EXPECT_EQ(t.capacity(), 0u); // empty trace owns no buffer yet

    t.append(PmOp::sfence());
    EXPECT_GE(t.capacity(), Trace::kInitialCapacity);

    // Filling up to the initial capacity must not reallocate.
    const PmOp *data = t.ops().data();
    for (size_t i = t.size(); i < Trace::kInitialCapacity; i++)
        t.append(PmOp::sfence());
    EXPECT_EQ(t.ops().data(), data);
}

} // namespace
} // namespace pmtest
