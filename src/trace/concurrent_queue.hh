/**
 * @file
 * A thread-safe, closeable FIFO queue. This is the user-space channel
 * between the program under test and the checking engine (the paper's
 * §4.5): producers push sealed traces, and every engine worker pops
 * the one queue.
 *
 * The queue supports an optional capacity bound. A bounded queue
 * exerts backpressure: push() blocks the producer while the queue is
 * full, so a program that outruns its checkers stalls instead of
 * growing memory without limit. tryPush() is the non-blocking probe
 * the engine pool uses to account stall time before it blocks.
 *
 * A bounded queue may additionally set a *wake mark* below its
 * capacity: a producer that blocked on a full queue is only resumed
 * once occupancy drops under the mark. That is the kernel wait-queue
 * protocol of the paper's §4.5 (PMFS parks writers until the
 * /proc/PMTest FIFO is less than half full) — KernelFifo is now a
 * thin adapter over this primitive, so the kernel path shares the
 * same backpressure machinery and stall statistics as the engine
 * pool's trace queue.
 */

#ifndef PMTEST_TRACE_CONCURRENT_QUEUE_HH
#define PMTEST_TRACE_CONCURRENT_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/clock.hh"

namespace pmtest
{

/**
 * Multi-producer/multi-consumer queue, unbounded by default.
 *
 * pop() blocks until an item is available or the queue is closed;
 * after close(), pop() drains remaining items and then returns
 * std::nullopt. With a nonzero capacity, push() blocks while the
 * queue is full; close() releases blocked producers (their items are
 * still enqueued so no trace is lost at shutdown).
 */
template <typename T>
class ConcurrentQueue
{
  public:
    /**
     * @param capacity maximum queued items; 0 = unbounded.
     * @param wake_mark occupancy below which producers blocked on a
     *        full queue resume; 0 = resume as soon as any space
     *        frees (no hysteresis). Must be < capacity when set.
     */
    explicit ConcurrentQueue(size_t capacity = 0, size_t wake_mark = 0)
        : capacity_(capacity), wakeMark_(wake_mark)
    {
    }

    /**
     * Push one item and wake one waiting consumer. On a bounded
     * queue, blocks while full (backpressure) unless closed.
     */
    void
    push(T item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            waitNotFull(lock);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    /**
     * Push unless the queue has been closed: the kernel-FIFO entry
     * point. Blocks like push() while full; once the wait ends,
     * enqueues and returns true only when the queue is still open —
     * after shutdown the item is dropped and false is returned.
     */
    bool
    pushUnlessClosed(T item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            waitNotFull(lock);
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
        return true;
    }

    /**
     * Non-blocking push. @return false when a bounded queue is full
     * (the item is left untouched in that case).
     */
    bool
    tryPush(T &item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (fullLocked())
                return false;
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
        return true;
    }

    /**
     * Pop the head item, blocking while the queue is open and empty.
     * @return the item, or std::nullopt once closed and drained.
     */
    std::optional<T>
    pop()
    {
        std::optional<T> item;
        size_t depth = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return !items_.empty() || closed_; });
            if (items_.empty())
                return std::nullopt;
            item = std::move(items_.front());
            items_.pop_front();
            depth = items_.size();
        }
        notifyProducers(depth);
        return item;
    }

    /** Non-blocking pop. */
    std::optional<T>
    tryPop()
    {
        std::optional<T> item;
        size_t depth = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (items_.empty())
                return std::nullopt;
            item = std::move(items_.front());
            items_.pop_front();
            depth = items_.size();
        }
        notifyProducers(depth);
        return item;
    }

    /**
     * Close the queue: consumers drain and then see std::nullopt;
     * producers blocked on a full queue are released.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_all();
        notFullCv_.notify_all();
    }

    /** Capacity bound (0 = unbounded). */
    size_t capacity() const { return capacity_; }

    /** Producer wake mark (0 = wake as soon as space frees). */
    size_t wakeMark() const { return wakeMark_; }

    /** Times a producer had to block on a full queue. */
    uint64_t
    producerStalls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return producerStalls_;
    }

    /** Total time producers spent blocked on a full queue. */
    uint64_t
    producerStallNanos() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stallNanos_;
    }

    /** Number of queued items (racy; for stats only). */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    /** True when empty (racy; for stats only). */
    bool empty() const { return size() == 0; }

  private:
    /**
     * Whether a push must wait. A closed queue never blocks
     * producers: shutdown must not deadlock a stalled submitter.
     */
    bool
    fullLocked() const
    {
        return capacity_ != 0 && !closed_ && items_.size() >= capacity_;
    }

    /** Occupancy below which a *blocked* producer may resume. */
    size_t
    wakeLevel() const
    {
        return wakeMark_ != 0 ? wakeMark_ : capacity_;
    }

    /**
     * Block (accounting the stall) until a blocked producer may
     * proceed: below the wake level, or the queue closed.
     */
    void
    waitNotFull(std::unique_lock<std::mutex> &lock)
    {
        if (!fullLocked())
            return;
        producerStalls_++;
        Timer timer;
        notFullCv_.wait(lock, [this] {
            return closed_ || items_.size() < wakeLevel();
        });
        stallNanos_ += timer.elapsedNs();
    }

    /**
     * Wake blocked producers after a pop left @p depth items. With a
     * wake mark, producers stay parked until occupancy drops under
     * the mark and are then all released (the kernel wait-queue
     * protocol); without one, a single producer is resumed per freed
     * slot.
     */
    void
    notifyProducers(size_t depth)
    {
        if (wakeMark_ != 0) {
            if (depth < wakeMark_)
                notFullCv_.notify_all();
        } else {
            notFullCv_.notify_one();
        }
    }

    mutable std::mutex mutex_;
    std::condition_variable cv_;        ///< signals "not empty / closed"
    std::condition_variable notFullCv_; ///< signals "space available"
    std::deque<T> items_;
    size_t capacity_ = 0;
    size_t wakeMark_ = 0;
    uint64_t producerStalls_ = 0; ///< guarded by mutex_
    uint64_t stallNanos_ = 0;     ///< guarded by mutex_
    bool closed_ = false;
};

} // namespace pmtest

#endif // PMTEST_TRACE_CONCURRENT_QUEUE_HH
