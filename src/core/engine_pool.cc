#include "core/engine_pool.hh"

#include "obs/telemetry.hh"
#include "util/clock.hh"

namespace pmtest::core
{

namespace
{

/** Resolve the live queue's bound (0 = unbounded). */
size_t
resolveQueueCapacity(size_t requested, size_t workers)
{
    if (workers == 0 || requested == PoolOptions::kUnboundedQueue)
        return 0; // inline mode has no queue
    return requested != 0 ? requested
                          : PoolOptions::kDefaultQueueCapacity;
}

/**
 * The source-job side of an engine: TraceSource::checkNext feeds it a
 * claimed trace, whole or window by window, and take() hands over the
 * finished trace's report.
 */
class EngineConsumer final : public TraceConsumer
{
  public:
    explicit EngineConsumer(Engine &engine) : engine_(engine) {}

    void consume(const Trace &trace) override
    {
        report_ = engine_.check(trace);
    }

    void begin(uint64_t trace_id, uint32_t file_id) override
    {
        engine_.begin(trace_id, file_id);
    }

    void feed(const PmOp *ops, size_t count) override
    {
        engine_.feed(ops, count);
    }

    void finish(Arena arena) override { report_ = engine_.finish(arena); }

    Report take() { return std::move(report_); }

  private:
    Engine &engine_;
    Report report_;
};

} // namespace

/** One checkSource() run, shared by every thread working on it. */
struct EnginePool::SourceJob
{
    explicit SourceJob(TraceSource &s) : source(s) {}

    TraceSource &source;
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> traces{0};
    std::atomic<uint64_t> decodeNanos{0};
    std::mutex errorMutex;
    bool errorSet = false; ///< guarded by errorMutex
    SourceError error;     ///< guarded by errorMutex

    /** Stop every thread; keep the first error. */
    void
    fail(SourceError e)
    {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!errorSet) {
            errorSet = true;
            error = std::move(e);
        }
    }
};

void
EnginePool::Lane::publish()
{
    // Release/acquire: a snapshot that counts a trace counts its ops.
    opsProcessed.store(engine->opsProcessed(), std::memory_order_relaxed);
    tracesChecked.store(engine->tracesChecked(),
                        std::memory_order_release);
}

WorkerStats
EnginePool::Lane::snapshot() const
{
    WorkerStats w;
    w.tracesChecked = tracesChecked.load(std::memory_order_acquire);
    w.opsProcessed = opsProcessed.load(std::memory_order_relaxed);
    return w;
}

EnginePool::EnginePool(const PoolOptions &options)
    : kind_(options.model),
      queueCapacity_(
          resolveQueueCapacity(options.queueCapacity, options.workers)),
      queue_(queueCapacity_)
{
    if (options.workers == 0) {
        inlineLane_ = std::make_unique<Lane>();
        inlineLane_->engine = std::make_unique<Engine>(kind_);
        return;
    }
    workers_.reserve(options.workers);
    for (size_t i = 0; i < options.workers; i++) {
        auto w = std::make_unique<Worker>();
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
    // Closing the queue releases any producer still blocked on a
    // full queue (no new submissions may race destruction).
    queue_.close();
    workCv_.notify_all();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

void
EnginePool::notifyWork(uint64_t ops, bool force)
{
    // Pairs with the fence in workerLoop: a worker bumps parked_
    // before it looks at the queue, and the producer queued before it
    // reads parked_, so either the look sees the new work or this
    // load sees the worker parked. (The look and the push also lock
    // the queue mutex, which orders them too; that is the edge
    // ThreadSanitizer checks, as it does not model fences.) An awake
    // worker looks at the queue before it parks, so with none parked
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
    // its look and its wait: either it sees the new work in its
    // predicate check, or it is already waiting and gets the notify.
    {
        std::lock_guard<std::mutex> lock(workMutex_);
    }
    // A notify with a parked worker is a futex wake; counting those
    // is the pool's futex-wake proxy. Every worker pops the one
    // queue, so one wake serves a backlog that keeps growing; a
    // thread that starts waiting on the pool wakes every parked
    // worker, so the backlog it waits for is checked in parallel.
    obs::count(obs::Counter::PoolWakes);
    if (force)
        workCv_.notify_all();
    else
        workCv_.notify_one();
}

void
EnginePool::workerLoop(Worker &worker)
{
    for (;;) {
        if (std::optional<Trace> trace = queue_.tryPop()) {
            Report report = worker.engine->check(*trace);
            worker.publish();
            recordResult(std::move(report));
            continue;
        }
        std::unique_lock<std::mutex> lock(workMutex_);
        parked_.fetch_add(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        workCv_.wait(lock, [&] {
            return stopping_ || !queue_.empty() ||
                   (job_ && worker.jobEpoch != jobEpoch_);
        });
        parked_.fetch_sub(1, std::memory_order_relaxed);
        if (SourceJob *job = joinJob(worker)) {
            lock.unlock();
            runLane(worker, *job);
            lock.lock();
            if (--jobWorkers_ == 0)
                jobCv_.notify_all();
            continue;
        }
        if (stopping_ && queue_.empty())
            return; // all pending work drained
    }
}

EnginePool::SourceJob *
EnginePool::joinJob(Worker &worker)
{
    if (!job_ || worker.jobEpoch == jobEpoch_)
        return nullptr;
    worker.jobEpoch = jobEpoch_;
    jobWorkers_++;
    return job_;
}

void
EnginePool::runLane(Lane &lane, SourceJob &job)
{
    EngineConsumer consumer(*lane.engine);
    uint64_t traces = 0;
    while (!job.failed.load(std::memory_order_relaxed)) {
        SourceError error;
        const TraceSource::Pull result =
            job.source.checkNext(consumer, &error);
        if (result == TraceSource::Pull::Error) {
            job.fail(std::move(error));
            break;
        }
        if (result == TraceSource::Pull::End)
            break;
        traces++;
        lane.publish();
        recordResult(consumer.take(), /*claimed=*/true);
    }
    obs::count(obs::Counter::TracesDecoded, traces);
    job.traces.fetch_add(traces, std::memory_order_relaxed);
    job.decodeNanos.fetch_add(consumer.decodeNanos(),
                              std::memory_order_relaxed);
}

std::vector<EnginePool::Lane *>
EnginePool::callerLanes(size_t n)
{
    std::lock_guard<std::mutex> lock(lanesMutex_);
    while (callerLanes_.size() < n) {
        auto lane = std::make_unique<Lane>();
        lane->engine = std::make_unique<Engine>(kind_);
        callerLanes_.push_back(std::move(lane));
    }
    std::vector<Lane *> lanes;
    for (size_t i = 0; i < n; i++)
        lanes.push_back(callerLanes_[i].get());
    return lanes;
}

bool
EnginePool::checkSource(TraceSource &source, size_t callers,
                        IngestStats *stats, SourceError *error)
{
    std::lock_guard<std::mutex> one_job(jobMutex_);
    SourceJob job(source);
    const std::vector<Lane *> lanes =
        callerLanes(std::max<size_t>(1, callers));

    // Post the job: every worker joins when it next parks (an idle
    // pool's workers are all parked, so all join at once).
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(workMutex_);
            job_ = &job;
            jobEpoch_++;
        }
        workCv_.notify_all();
    }

    std::vector<std::thread> threads;
    threads.reserve(lanes.size() - 1);
    for (size_t d = 1; d < lanes.size(); d++) {
        threads.emplace_back([this, &job, lane = lanes[d], d] {
            obs::nameThread("ingest-" + std::to_string(d));
            runLane(*lane, job);
        });
    }
    runLane(*lanes[0], job);
    for (auto &t : threads)
        t.join();

    // The source is spent: withdraw the job so a worker that has not
    // joined yet never will, and wait out those inside it.
    if (!workers_.empty()) {
        std::unique_lock<std::mutex> lock(workMutex_);
        job_ = nullptr;
        jobCv_.wait(lock, [this] { return jobWorkers_ == 0; });
    }

    if (stats) {
        stats->tracesDecoded += job.traces.load();
        stats->decodeNanos += job.decodeNanos.load();
    }
    if (!job.failed.load())
        return true;
    if (error)
        *error = std::move(job.error);
    return false;
}

void
EnginePool::recordResult(Report report, bool claimed)
{
    obs::count(obs::Counter::ReportsMerged);
    bool drained;
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        obs::SpanScope span(obs::Stage::ReportMerge);
        aggregate_.merge(std::move(report));
        if (claimed)
            submitted_++;
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
EnginePool::submit(Trace trace)
{
    obs::count(obs::Counter::TracesSubmitted);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        submitted_++;
    }

    if (workers_.empty()) {
        // Inline (coupled) mode: check on the calling thread.
        Report report;
        {
            std::lock_guard<std::mutex> lock(inlineMutex_);
            report = inlineLane_->engine->check(trace);
            inlineLane_->publish();
        }
        recordResult(std::move(report));
        return;
    }

    const uint64_t ops = trace.size();
    if (!queue_.tryPush(trace)) {
        // Queue full: backpressure. Register as a waiter before the
        // last try, like a drainer: the queue may drain, the workers
        // park and other producers refill it below the mark between
        // a wake and the block, and their submits must then wake for
        // this producer.
        obs::SpanScope stall_span(obs::Stage::PoolStall);
        obs::count(obs::Counter::SubmitStalls);
        Timer timer;
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        if (!queue_.tryPush(trace)) {
            notifyWork(0, /*force=*/true);
            queue_.push(std::move(trace));
        }
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        stallNanos_.fetch_add(timer.elapsedNs(),
                              std::memory_order_relaxed);
    }
    notifyWork(ops);
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
    stats.queuedTraces = queue_.size();
    stats.producerStallNanos =
        stallNanos_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        stats.tracesSubmitted = submitted_;
        stats.tracesCompleted = completed_;
        stats.ingest = ingest_;
    }
    if (inlineLane_)
        stats.workers.push_back(inlineLane_->snapshot());
    for (const auto &worker : workers_)
        stats.workers.push_back(worker->snapshot());
    std::lock_guard<std::mutex> lock(lanesMutex_);
    for (const auto &lane : callerLanes_)
        stats.workers.push_back(lane->snapshot());
    return stats;
}

void
EnginePool::recordIngest(const IngestStats &ingest)
{
    std::lock_guard<std::mutex> lock(resultMutex_);
    ingest_ = ingest;
}

WorkerStats
EnginePool::totals() const
{
    WorkerStats sum;
    const auto add = [&sum](const Lane &lane) {
        const WorkerStats w = lane.snapshot();
        sum.tracesChecked += w.tracesChecked;
        sum.opsProcessed += w.opsProcessed;
    };
    if (inlineLane_)
        add(*inlineLane_);
    for (const auto &w : workers_)
        add(*w);
    std::lock_guard<std::mutex> lock(lanesMutex_);
    for (const auto &lane : callerLanes_)
        add(*lane);
    return sum;
}

uint64_t
EnginePool::tracesChecked() const
{
    return totals().tracesChecked;
}

uint64_t
EnginePool::opsProcessed() const
{
    return totals().opsProcessed;
}

} // namespace pmtest::core
