#include "core/engine_pool.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "obs/telemetry.hh"
#include "util/clock.hh"

namespace pmtest::core
{

namespace
{

/**
 * Resolve the per-worker queue bound: explicit option, else the
 * PMTEST_QUEUE_CAP environment variable when it parses, else a
 * default derived from the worker count. The default bounds the
 * *total* backlog (and so the memory a stalled checker pipeline can
 * pin) at a fixed number of traces split across the queues — more
 * workers means shallower queues, not more queued traces.
 */
size_t
resolveQueueCapacity(size_t requested, size_t workers)
{
    if (workers == 0)
        return 0; // inline mode has no queues
    if (requested == PoolOptions::kUnboundedQueue)
        return 0;
    if (requested != 0)
        return requested;
    if (const char *env = std::getenv("PMTEST_QUEUE_CAP")) {
        // The whole value must be a number (0 = unbounded); anything
        // else is ignored and the default below applies.
        size_t parsed = 0;
        const char *end = env + std::strlen(env);
        const auto [ptr, ec] = std::from_chars(env, end, parsed);
        if (ec == std::errc{} && ptr == end)
            return parsed;
    }
    constexpr size_t target_backlog = 1024; ///< total queued traces
    constexpr size_t min_per_worker = 16;
    return std::max(min_per_worker, target_backlog / workers);
}

} // namespace

EnginePool::EnginePool(const PoolOptions &options)
    : kind_(options.model),
      queueCapacity_(
          resolveQueueCapacity(options.queueCapacity, options.workers))
{
    if (options.workers == 0) {
        inlineEngine_ = std::make_unique<Engine>(kind_);
        return;
    }
    workers_.reserve(options.workers);
    for (size_t i = 0; i < options.workers; i++) {
        auto w = std::make_unique<Worker>(queueCapacity_);
        w->engine = std::make_unique<Engine>(kind_);
        workers_.push_back(std::move(w));
    }
    for (size_t i = 0; i < workers_.size(); i++) {
        Worker *raw = workers_[i].get();
        raw->thread = std::thread([this, raw, i] {
            obs::nameThread("pool-worker-" + std::to_string(i));
            workerLoop(*raw);
        });
    }
}

EnginePool::EnginePool(ModelKind kind, size_t workers)
    : EnginePool(PoolOptions{kind, workers})
{
}

EnginePool::~EnginePool()
{
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        stopping_ = true;
    }
    // Closing the queues releases any producer still blocked on a
    // full queue (no new submissions may race destruction, as before).
    for (auto &w : workers_)
        w->queue.close();
    workCv_.notify_all();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

bool
EnginePool::anyQueued() const
{
    for (const auto &w : workers_) {
        if (!w->queue.empty())
            return true;
    }
    return false;
}

void
EnginePool::notifyWork(uint64_t ops, bool force)
{
    // Pairs with the fence in workerLoop: a worker bumps parked_
    // before it scans the queues, and the producer queued before it
    // reads parked_, so either the scan sees the new work or this
    // load sees the worker parked. (The scan and the push also lock
    // the same queue mutex, which orders them too; that is the edge
    // ThreadSanitizer checks, as it does not model fences.) An awake
    // worker scans every queue before it parks, so with none parked
    // there is nothing to do.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0)
        return;
    if (force || waiters_.load(std::memory_order_relaxed) != 0) {
        unwokenOps_.store(0, std::memory_order_relaxed);
    } else {
        // Accrue the backlog; the submit that carries it to the mark
        // resets it and wakes.
        uint64_t before = unwokenOps_.load(std::memory_order_relaxed);
        bool reached = false;
        do {
            reached = before + ops >= kWakeOps;
        } while (!unwokenOps_.compare_exchange_weak(
            before, reached ? 0 : before + ops,
            std::memory_order_relaxed));
        if (!reached)
            return;
    }
    // Taking the mutex orders this wakeup against a worker between
    // its scan and its wait: either it sees the new work in its
    // predicate check, or it is already waiting and gets the notify.
    {
        std::lock_guard<std::mutex> lock(workMutex_);
    }
    // A notify with a parked worker is a futex wake; counting those
    // is the pool's futex-wake proxy. Any worker can serve any queue
    // (stealing), so one wakeup is enough: a woken worker that
    // steals and requeues runs this rule again.
    obs::count(obs::Counter::PoolWakes);
    workCv_.notify_one();
}

size_t
EnginePool::stealFrom(const Worker &thief, std::vector<Trace> &out)
{
    Worker *victim = nullptr;
    size_t deepest = 0;
    for (const auto &w : workers_) {
        if (w.get() == &thief)
            continue;
        const size_t depth = w->queue.size();
        if (depth > deepest) {
            deepest = depth;
            victim = w.get();
        }
    }
    if (!victim)
        return 0;
    return victim->queue.tryPopHalf(out);
}

void
EnginePool::workerLoop(Worker &worker)
{
    // Reused steal buffer: one victim scan grabs up to half the
    // deepest peer queue instead of a single trace per scan.
    std::vector<Trace> stolen;
    for (;;) {
        std::optional<Trace> trace = worker.queue.tryPop();
        if (!trace) {
            stolen.clear();
            obs::SpanScope scan_span(obs::Stage::StealScan);
            if (const size_t got = stealFrom(worker, stolen)) {
                worker.steals.fetch_add(got,
                                        std::memory_order_relaxed);
                worker.stealScans.fetch_add(
                    1, std::memory_order_relaxed);
                obs::count(obs::Counter::StealScans);
                obs::count(obs::Counter::TracesStolen, got);
                // The first stolen trace runs now; the rest requeue
                // on the thief, where they stay stealable by other
                // idle workers.
                trace = std::move(stolen.front());
                uint64_t requeued_ops = 0;
                for (size_t i = 1; i < stolen.size(); i++) {
                    const size_t ops = stolen[i].size();
                    if (worker.queue.tryPush(stolen[i])) {
                        requeued_ops += ops;
                        continue;
                    }
                    // Own queue full (tiny capacity): check directly
                    // rather than blocking a worker on a push.
                    checkOn(worker, std::move(stolen[i]));
                }
                if (requeued_ops)
                    notifyWork(requeued_ops);
            }
        }
        if (trace) {
            checkOn(worker, std::move(*trace));
            continue;
        }
        std::unique_lock<std::mutex> lock(workMutex_);
        parked_.fetch_add(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        workCv_.wait(lock, [&] { return stopping_ || anyQueued(); });
        parked_.fetch_sub(1, std::memory_order_relaxed);
        if (stopping_ && !anyQueued())
            return; // all pending work drained
    }
}

void
EnginePool::checkOn(Worker &worker, Trace trace)
{
    Report report = worker.engine->check(trace);
    worker.opsProcessed.store(worker.engine->opsProcessed(),
                              std::memory_order_relaxed);
    worker.tracesChecked.store(worker.engine->tracesChecked(),
                               std::memory_order_relaxed);
    recordResult(std::move(report));
}

void
EnginePool::recordResult(Report report)
{
    obs::count(obs::Counter::ReportsMerged);
    bool drained;
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        obs::SpanScope span(obs::Stage::ReportMerge);
        aggregate_.merge(std::move(report));
        completed_++;
        // The drain predicate can only turn true at the moment the
        // counters meet; notifying on every completion wakes blocked
        // drainers thousands of times for nothing.
        drained = completed_ == submitted_;
    }
    if (drained)
        drainCv_.notify_all();
}

void
EnginePool::checkInline(Trace trace)
{
    Report report;
    {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        report = inlineEngine_->check(trace);
    }
    recordResult(std::move(report));
}

void
EnginePool::submit(Trace trace)
{
    obs::count(obs::Counter::TracesSubmitted);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        submitted_++;
    }

    if (workers_.empty()) {
        // Inline (coupled) mode: check on the calling thread.
        checkInline(std::move(trace));
        return;
    }

    const size_t start =
        nextWorker_.fetch_add(1, std::memory_order_relaxed) %
        workers_.size();
    const uint64_t ops = trace.size();
    // Round-robin target first; if it is full, try the other queues
    // before stalling.
    for (size_t i = 0; i < workers_.size(); i++) {
        Worker &w = *workers_[(start + i) % workers_.size()];
        if (w.queue.tryPush(trace)) {
            notifyWork(ops);
            return;
        }
    }
    // Every queue full: backpressure. Block on the original target
    // and account the stall.
    obs::SpanScope stall_span(obs::Stage::PoolStall);
    obs::count(obs::Counter::SubmitStalls);
    Timer timer;
    pushBlocking(*workers_[start], std::move(trace));
    stallNanos_.fetch_add(timer.elapsedNs(), std::memory_order_relaxed);
    notifyWork(ops);
}

void
EnginePool::pushBlocking(Worker &target, Trace trace)
{
    // Register before the last try, like a drainer: the queue may
    // drain, its workers park and other producers refill it below
    // the mark between a wake and the block, and their submits must
    // then wake for this producer.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (!target.queue.tryPush(trace)) {
        notifyWork(0, /*force=*/true);
        target.queue.push(std::move(trace));
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void
EnginePool::submitBatch(std::vector<Trace> traces)
{
    if (traces.empty())
        return;
    obs::SpanScope span(obs::Stage::PoolSubmit);
    obs::count(obs::Counter::TracesSubmitted, traces.size());
    obs::count(obs::Counter::BatchesSubmitted);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        submitted_ += traces.size();
    }
    batches_.fetch_add(1, std::memory_order_relaxed);

    if (workers_.empty()) {
        for (auto &t : traces)
            checkInline(std::move(t));
        return;
    }

    const size_t start =
        nextWorker_.fetch_add(1, std::memory_order_relaxed) %
        workers_.size();
    Worker &target = *workers_[start];
    uint64_t batch_ops = 0;
    for (const Trace &t : traces)
        batch_ops += t.size();
    if (target.queue.tryPushAll(traces)) {
        notifyWork(batch_ops);
        return;
    }
    // The batch does not fit at once: feed it item by item so the
    // workers can drain concurrently (each push is individually
    // released by pops), and account the producer stall.
    obs::SpanScope stall_span(obs::Stage::PoolStall);
    obs::count(obs::Counter::SubmitStalls);
    Timer timer;
    for (auto &t : traces) {
        const uint64_t ops = t.size();
        if (!target.queue.tryPush(t))
            pushBlocking(target, std::move(t));
        notifyWork(ops);
    }
    traces.clear();
    stallNanos_.fetch_add(timer.elapsedNs(), std::memory_order_relaxed);
}

std::unique_lock<std::mutex>
EnginePool::waitDrained()
{
    // Register before the wake: a trace submitted after it sees the
    // waiter and wakes at once, so queued work below the mark
    // cannot strand this wait behind a parked worker.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    notifyWork(0, /*force=*/true);
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return lock;
}

void
EnginePool::drain()
{
    waitDrained();
}

Report
EnginePool::results()
{
    // Wait and snapshot under one lock: traces submitted while we
    // wait extend the wait, but nothing can complete between the
    // predicate turning true and the copy.
    const auto lock = waitDrained();
    return aggregate_;
}

void
EnginePool::clearResults()
{
    const auto lock = waitDrained();
    aggregate_ = Report();
}

Report
EnginePool::takeResults()
{
    const auto lock = waitDrained();
    Report out = std::move(aggregate_);
    aggregate_ = Report();
    return out;
}

PoolStats
EnginePool::stats() const
{
    PoolStats stats;
    stats.valid = true;
    stats.queueCapacity = queueCapacity_;
    stats.batchesSubmitted = batches_.load(std::memory_order_relaxed);
    stats.producerStallNanos =
        stallNanos_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        stats.tracesSubmitted = submitted_;
        stats.tracesCompleted = completed_;
        stats.ingest = ingest_;
    }
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        WorkerStats w;
        w.tracesChecked = inlineEngine_->tracesChecked();
        w.opsProcessed = inlineEngine_->opsProcessed();
        stats.workers.push_back(w);
        return stats;
    }
    for (const auto &worker : workers_) {
        WorkerStats w;
        w.tracesChecked =
            worker->tracesChecked.load(std::memory_order_relaxed);
        w.opsProcessed =
            worker->opsProcessed.load(std::memory_order_relaxed);
        w.steals = worker->steals.load(std::memory_order_relaxed);
        w.stealScans =
            worker->stealScans.load(std::memory_order_relaxed);
        w.queueDepth = worker->queue.size();
        stats.steals += w.steals;
        stats.stealScans += w.stealScans;
        stats.workers.push_back(w);
    }
    return stats;
}

void
EnginePool::recordIngest(const IngestStats &ingest)
{
    std::lock_guard<std::mutex> lock(resultMutex_);
    ingest_ = ingest;
}

uint64_t
EnginePool::tracesChecked() const
{
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        return inlineEngine_->tracesChecked();
    }
    uint64_t total = 0;
    for (const auto &w : workers_)
        total += w->tracesChecked.load(std::memory_order_relaxed);
    return total;
}

uint64_t
EnginePool::opsProcessed() const
{
    if (workers_.empty()) {
        std::lock_guard<std::mutex> lock(inlineMutex_);
        return inlineEngine_->opsProcessed();
    }
    uint64_t total = 0;
    for (const auto &w : workers_)
        total += w->opsProcessed.load(std::memory_order_relaxed);
    return total;
}

} // namespace pmtest::core
