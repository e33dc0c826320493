/**
 * @file
 * A bounded FIFO modelling the kernel-to-user trace channel of the
 * paper's §4.5: PMFS (a kernel module) cannot link the user-space
 * checking engine, so traces cross a kernel FIFO (/proc/PMTest) with
 * 1024 entries. When the FIFO fills, the producer parks itself on an
 * interruptible wait queue and resumes once the FIFO is less than
 * half full.
 *
 * Implementation-wise this is now a thin adapter over
 * ConcurrentQueue's bounded-backpressure primitives (capacity bound
 * + half-capacity wake mark + stall accounting) — the same machinery
 * the engine pool's trace queue uses — so the kernel path reports
 * the same backpressure statistics (stall count, stall time, queue
 * depth) as the user-space path instead of keeping a private buffer
 * implementation.
 */

#ifndef PMTEST_TRACE_KERNEL_FIFO_HH
#define PMTEST_TRACE_KERNEL_FIFO_HH

#include <cstddef>
#include <optional>

#include "trace/concurrent_queue.hh"
#include "trace/trace.hh"

namespace pmtest
{

/**
 * Bounded trace FIFO with the kernel-side backpressure protocol:
 * push() blocks while full and wakes only when occupancy drops below
 * half capacity, mirroring the wait-queue behaviour the paper
 * describes for the kernel module integration.
 */
class KernelFifo
{
  public:
    /** Default capacity used by the paper: 1024 trace entries. */
    static constexpr size_t defaultCapacity = 1024;

    explicit KernelFifo(size_t capacity = defaultCapacity)
        : queue_(capacity, capacity / 2)
    {
    }

    /**
     * Push a trace. Blocks (producer on the wait queue) while the
     * FIFO is full; wakes when occupancy < capacity/2 or the FIFO is
     * shut down.
     * @return false if the FIFO was shut down before the push landed.
     */
    bool push(Trace trace) { return queue_.pushUnlessClosed(std::move(trace)); }

    /**
     * Pop the oldest trace, blocking while open and empty.
     * @return the trace, or std::nullopt once shut down and drained.
     */
    std::optional<Trace> pop() { return queue_.pop(); }

    /** Shut down: wake all waiters; pops drain, pushes fail. */
    void shutdown() { queue_.close(); }

    /** Current occupancy (racy; stats only). */
    size_t size() const { return queue_.size(); }

    /** Configured capacity. */
    size_t capacity() const { return queue_.capacity(); }

    /** Number of times a producer had to block on the wait queue. */
    uint64_t producerStalls() const { return queue_.producerStalls(); }

    /** Total time producers spent parked on the wait queue. */
    uint64_t
    producerStallNanos() const
    {
        return queue_.producerStallNanos();
    }

  private:
    ConcurrentQueue<Trace> queue_;
};

} // namespace pmtest

#endif // PMTEST_TRACE_KERNEL_FIFO_HH
