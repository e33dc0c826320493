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
EnginePool::notifyWork(size_t items)
{
    // Taking the mutex (even empty) orders this wakeup against a
    // worker that just scanned the queues empty and is about to wait:
    // either it sees the new item during its predicate check, or it
    // is already waiting and receives the notify.
    { std::lock_guard<std::mutex> lock(workMutex_); }
    // Any worker can serve any queue (stealing), so one new trace
    // needs exactly one wakeup; waking the whole pool per submit is a
    // thundering herd on the producer's critical path.
    if (items == 1)
        workCv_.notify_one();
    else
        workCv_.notify_all();
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
                size_t requeued = 0;
                for (size_t i = 1; i < stolen.size(); i++) {
                    if (worker.queue.tryPush(stolen[i])) {
                        requeued++;
                        continue;
                    }
                    // Own queue full (tiny capacity): check directly
                    // rather than blocking a worker on a push.
                    checkOn(worker, std::move(stolen[i]));
                }
                if (requeued)
                    notifyWork(requeued);
            }
        }
        if (trace) {
            checkOn(worker, std::move(*trace));
            continue;
        }
        std::unique_lock<std::mutex> lock(workMutex_);
        workCv_.wait(lock, [&] { return stopping_ || anyQueued(); });
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
    if (workers_[start]->queue.tryPush(trace)) {
        notifyWork();
        return;
    }
    // Round-robin target full: try the other queues before stalling.
    for (size_t i = 1; i < workers_.size(); i++) {
        Worker &w = *workers_[(start + i) % workers_.size()];
        if (w.queue.tryPush(trace)) {
            notifyWork();
            return;
        }
    }
    // Every queue full: backpressure. Block on the original target
    // and account the stall (its owner is necessarily awake, so the
    // push is eventually released by a pop).
    obs::SpanScope stall_span(obs::Stage::PoolStall);
    obs::count(obs::Counter::SubmitStalls);
    Timer timer;
    workers_[start]->queue.push(std::move(trace));
    stallNanos_.fetch_add(timer.elapsedNs(), std::memory_order_relaxed);
    notifyWork();
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
    const size_t batch_size = traces.size();
    if (target.queue.tryPushAll(traces)) {
        notifyWork(batch_size);
        return;
    }
    // The batch does not fit at once: feed it item by item so the
    // workers can drain concurrently (each push is individually
    // released by pops), and account the producer stall.
    obs::SpanScope stall_span(obs::Stage::PoolStall);
    obs::count(obs::Counter::SubmitStalls);
    Timer timer;
    for (auto &t : traces) {
        if (!target.queue.tryPush(t))
            target.queue.push(std::move(t));
        notifyWork();
    }
    traces.clear();
    stallNanos_.fetch_add(timer.elapsedNs(), std::memory_order_relaxed);
}

void
EnginePool::drain()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
}

Report
EnginePool::results()
{
    // Wait and snapshot under one lock: traces submitted while we
    // wait extend the wait, but nothing can complete between the
    // predicate turning true and the copy.
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    return aggregate_;
}

void
EnginePool::clearResults()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
    aggregate_ = Report();
}

Report
EnginePool::takeResults()
{
    std::unique_lock<std::mutex> lock(resultMutex_);
    drainCv_.wait(lock, [this] { return completed_ == submitted_; });
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
