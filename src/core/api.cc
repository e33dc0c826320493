#include "core/api.hh"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "trace/trace_capture.hh"
#include "util/logging.hh"

namespace pmtest
{

namespace
{

/**
 * The process-wide framework state behind the PMTest_* API. One
 * instance exists at a time; pmtestInit()/pmtestExit() manage it.
 */
/** Build engine-pool options from the public config. */
core::PoolOptions
poolOptions(const Config &config)
{
    core::PoolOptions options;
    options.model = config.model;
    options.workers = config.workers;
    options.queueCapacity = config.queueCapacity;
    return options;
}

class Framework
{
  public:
    explicit Framework(const Config &config)
        : config_(config), pool_(poolOptions(config))
    {
    }

    /** Pending batched traces must reach the pool before it drains. */
    ~Framework() { flushBatches(); }

    const Config &config() const { return config_; }
    core::EnginePool &enginePool() { return pool_; }

    /**
     * Submit one sealed trace, honoring Config::traceBatch: small
     * traces accumulate in a per-thread buffer and go to the pool as
     * one dispatch unit.
     */
    void
    submitSealed(Trace trace)
    {
        if (config_.traceBatch <= 1) {
            pool_.submit(std::move(trace));
            return;
        }
        ThreadBatch &batch = threadBatch();
        std::vector<Trace> full;
        {
            std::lock_guard<std::mutex> lock(batch.mutex);
            batch.traces.push_back(std::move(trace));
            if (batch.traces.size() >= config_.traceBatch)
                full = std::move(batch.traces);
        }
        if (!full.empty())
            pool_.submitBatch(std::move(full));
    }

    /** Push every thread's batched traces into the pool. */
    void
    flushBatches()
    {
        if (config_.traceBatch <= 1)
            return;
        std::lock_guard<std::mutex> lock(captureMutex_);
        for (auto &batch : batches_) {
            std::vector<Trace> pending;
            {
                std::lock_guard<std::mutex> bl(batch->mutex);
                pending = std::move(batch->traces);
            }
            if (!pending.empty())
                pool_.submitBatch(std::move(pending));
        }
    }

    /** Get or create the calling thread's capture. */
    TraceCapture &
    capture()
    {
        // Keyed by a process-wide framework generation, not by the
        // instance address: a re-initialized framework can reuse the
        // previous instance's address, which must not resurrect a
        // stale capture pointer.
        thread_local TraceCapture *tls = nullptr;
        thread_local uint64_t tls_generation = 0;
        if (tls == nullptr || tls_generation != generation_) {
            std::lock_guard<std::mutex> lock(captureMutex_);
            captures_.push_back(std::make_unique<TraceCapture>(
                static_cast<uint32_t>(captures_.size())));
            tls = captures_.back().get();
            tls_generation = generation_;
        }
        return *tls;
    }

    /** This instance's generation (set at construction). */
    void setGeneration(uint64_t g) { generation_ = g; }

    void
    regVar(const std::string &name, const void *addr, size_t size)
    {
        std::lock_guard<std::mutex> lock(varMutex_);
        vars_[name] = {addr, size};
    }

    void
    unregVar(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(varMutex_);
        vars_.erase(name);
    }

    bool
    getVar(const std::string &name, const void **addr, size_t *size)
    {
        std::lock_guard<std::mutex> lock(varMutex_);
        auto it = vars_.find(name);
        if (it == vars_.end())
            return false;
        if (addr)
            *addr = it->second.first;
        if (size)
            *size = it->second.second;
        return true;
    }

    std::atomic<pmem::PmPool *> attachedPool{nullptr};
    std::atomic<uint64_t> tracesSubmitted{0};
    std::atomic<uint64_t> opsRecorded{0};
    std::function<void(Trace &&)> traceSink;
    std::mutex traceSinkMutex;

  private:
    /** One thread's not-yet-submitted sealed traces. */
    struct ThreadBatch
    {
        std::mutex mutex;
        std::vector<Trace> traces;
    };

    /** Get or create the calling thread's batch buffer. */
    ThreadBatch &
    threadBatch()
    {
        thread_local ThreadBatch *tls = nullptr;
        thread_local uint64_t tls_generation = 0;
        if (tls == nullptr || tls_generation != generation_) {
            std::lock_guard<std::mutex> lock(captureMutex_);
            batches_.push_back(std::make_unique<ThreadBatch>());
            tls = batches_.back().get();
            tls_generation = generation_;
        }
        return *tls;
    }

    Config config_;
    uint64_t generation_ = 0;
    core::EnginePool pool_;
    std::mutex captureMutex_;
    std::vector<std::unique_ptr<TraceCapture>> captures_;
    std::vector<std::unique_ptr<ThreadBatch>> batches_;
    std::mutex varMutex_;
    std::unordered_map<std::string, std::pair<const void *, size_t>> vars_;
};

std::unique_ptr<Framework> g_framework;
std::mutex g_framework_mutex;

Framework *
framework()
{
    return g_framework.get();
}

/** Record one op into the calling thread's capture, if tracking. */
inline void
recordOp(const PmOp &op)
{
    Framework *fw = framework();
    if (!fw)
        return;
    TraceCapture &cap = fw->capture();
    if (!cap.enabled())
        return;
    cap.record(op);
    fw->opsRecorded.fetch_add(1, std::memory_order_relaxed);
}

/** Mirror helpers for the attached crash-simulation pool. */
inline pmem::CacheSim *
attachedCache()
{
    Framework *fw = framework();
    if (!fw)
        return nullptr;
    pmem::PmPool *pool = fw->attachedPool.load(std::memory_order_acquire);
    return pool ? pool->cache() : nullptr;
}

} // namespace

void
pmtestInit(const Config &config)
{
    std::lock_guard<std::mutex> lock(g_framework_mutex);
    if (g_framework)
        fatal("PMTest_INIT: framework already initialized");
    static std::atomic<uint64_t> generation{0};
    g_framework = std::make_unique<Framework>(config);
    g_framework->setGeneration(
        generation.fetch_add(1, std::memory_order_relaxed) + 1);
}

void
pmtestExit()
{
    std::lock_guard<std::mutex> lock(g_framework_mutex);
    g_framework.reset();
}

bool
pmtestInitialized()
{
    return framework() != nullptr;
}

void
pmtestThreadInit()
{
    Framework *fw = framework();
    if (fw)
        fw->capture(); // allocate this thread's capture
}

void
pmtestStart()
{
    Framework *fw = framework();
    if (fw)
        fw->capture().start();
}

void
pmtestEnd()
{
    Framework *fw = framework();
    if (fw)
        fw->capture().stop();
}

bool
pmtestTracking()
{
    Framework *fw = framework();
    return fw && fw->capture().enabled();
}

void
pmtestExclude(const void *addr, size_t size)
{
    recordOp(PmOp{OpType::Exclude, reinterpret_cast<uint64_t>(addr),
                  size, 0, 0, {}});
}

void
pmtestInclude(const void *addr, size_t size)
{
    recordOp(PmOp{OpType::Include, reinterpret_cast<uint64_t>(addr),
                  size, 0, 0, {}});
}

void
pmtestRegVar(const std::string &name, const void *addr, size_t size)
{
    Framework *fw = framework();
    if (fw)
        fw->regVar(name, addr, size);
}

void
pmtestUnregVar(const std::string &name)
{
    Framework *fw = framework();
    if (fw)
        fw->unregVar(name);
}

bool
pmtestGetVar(const std::string &name, const void **addr, size_t *size)
{
    Framework *fw = framework();
    return fw && fw->getVar(name, addr, size);
}

void
pmtestSendTrace()
{
    Framework *fw = framework();
    if (!fw)
        return;
    TraceCapture &cap = fw->capture();
    if (cap.pendingOps() == 0)
        return;
    fw->tracesSubmitted.fetch_add(1, std::memory_order_relaxed);
    if (fw->traceSink) {
        std::lock_guard<std::mutex> lock(fw->traceSinkMutex);
        fw->traceSink(cap.seal());
        return;
    }
    fw->submitSealed(cap.seal());
}

void
pmtestSetTraceSink(std::function<void(Trace &&)> sink)
{
    Framework *fw = framework();
    if (!fw)
        fatal("pmtestSetTraceSink: framework not initialized");
    std::lock_guard<std::mutex> lock(fw->traceSinkMutex);
    fw->traceSink = std::move(sink);
}

void
pmtestGetResult()
{
    Framework *fw = framework();
    if (!fw)
        return;
    fw->flushBatches();
    fw->enginePool().drain();
}

Trace
pmtestSealTrace()
{
    Framework *fw = framework();
    if (!fw)
        return Trace();
    return fw->capture().seal();
}

void
pmtestSubmitTrace(Trace trace)
{
    Framework *fw = framework();
    if (!fw)
        return;
    fw->tracesSubmitted.fetch_add(1, std::memory_order_relaxed);
    fw->enginePool().submit(std::move(trace));
}

core::Report
pmtestResults()
{
    Framework *fw = framework();
    if (!fw)
        return core::Report();
    fw->flushBatches();
    return fw->enginePool().results();
}

void
pmtestClearResults()
{
    Framework *fw = framework();
    if (!fw)
        return;
    fw->flushBatches();
    fw->enginePool().clearResults();
}

void
pmtestIsPersist(const void *addr, size_t size, SourceLocation loc)
{
    recordOp(PmOp::isPersist(reinterpret_cast<uint64_t>(addr), size, loc));
}

void
pmtestIsOrderedBefore(const void *addr_a, size_t size_a,
                      const void *addr_b, size_t size_b,
                      SourceLocation loc)
{
    recordOp(PmOp::isOrderedBefore(reinterpret_cast<uint64_t>(addr_a),
                                   size_a,
                                   reinterpret_cast<uint64_t>(addr_b),
                                   size_b, loc));
}

void
pmtestTxCheckerStart(SourceLocation loc)
{
    recordOp(PmOp{OpType::TxCheckStart, 0, 0, 0, 0, loc});
}

void
pmtestTxCheckerEnd(SourceLocation loc)
{
    recordOp(PmOp{OpType::TxCheckEnd, 0, 0, 0, 0, loc});
}

void
pmStore(void *dst, const void *src, size_t size, SourceLocation loc)
{
    std::memcpy(dst, src, size);
    if (pmem::CacheSim *cache = attachedCache()) {
        pmem::PmPool *pool =
            framework()->attachedPool.load(std::memory_order_acquire);
        if (pool->contains(dst))
            cache->store(pool->offsetOf(dst), src, size);
    }
    recordOp(PmOp::write(reinterpret_cast<uint64_t>(dst), size, loc));
}

void
pmClwb(const void *addr, size_t size, SourceLocation loc)
{
    if (pmem::CacheSim *cache = attachedCache()) {
        pmem::PmPool *pool =
            framework()->attachedPool.load(std::memory_order_acquire);
        if (pool->contains(addr))
            cache->clwb(pool->offsetOf(addr), size);
    }
    recordOp(PmOp::clwb(reinterpret_cast<uint64_t>(addr), size, loc));
}

void
pmClflush(const void *addr, size_t size, SourceLocation loc)
{
    if (pmem::CacheSim *cache = attachedCache()) {
        pmem::PmPool *pool =
            framework()->attachedPool.load(std::memory_order_acquire);
        if (pool->contains(addr))
            cache->clflush(pool->offsetOf(addr), size);
    }
    recordOp(PmOp{OpType::Clflush, reinterpret_cast<uint64_t>(addr),
                  size, 0, 0, loc});
}

void
pmSfence(SourceLocation loc)
{
    if (pmem::CacheSim *cache = attachedCache())
        cache->sfence();
    recordOp(PmOp::sfence(loc));
}

void
pmOfence(SourceLocation loc)
{
    // The cache model does not track HOPS ordering queues; crash
    // simulation is only supported under the x86 model (DESIGN.md).
    recordOp(PmOp::ofence(loc));
}

void
pmDfence(SourceLocation loc)
{
    if (pmem::CacheSim *cache = attachedCache())
        cache->flushAll();
    recordOp(PmOp::dfence(loc));
}

void
pmDcCvap(const void *addr, size_t size, SourceLocation loc)
{
    // Same durability mechanics as clwb for the cache simulation.
    if (pmem::CacheSim *cache = attachedCache()) {
        pmem::PmPool *pool =
            framework()->attachedPool.load(std::memory_order_acquire);
        if (pool->contains(addr))
            cache->clwb(pool->offsetOf(addr), size);
    }
    recordOp(PmOp::dcCvap(reinterpret_cast<uint64_t>(addr), size, loc));
}

void
pmDsb(SourceLocation loc)
{
    if (pmem::CacheSim *cache = attachedCache())
        cache->sfence();
    recordOp(PmOp::dsb(loc));
}

void
pmTxBegin(SourceLocation loc)
{
    recordOp(PmOp{OpType::TxBegin, 0, 0, 0, 0, loc});
}

void
pmTxEnd(SourceLocation loc)
{
    recordOp(PmOp{OpType::TxEnd, 0, 0, 0, 0, loc});
}

void
pmTxAdd(const void *addr, size_t size, SourceLocation loc)
{
    recordOp(PmOp{OpType::TxAdd, reinterpret_cast<uint64_t>(addr), size,
                  0, 0, loc});
}

void
pmtestAttachPool(pmem::PmPool *pool)
{
    Framework *fw = framework();
    if (!fw)
        fatal("pmtestAttachPool: framework not initialized");
    if (pool && !pool->simulating())
        fatal("pmtestAttachPool: pool was not built with crash "
              "simulation enabled");
    fw->attachedPool.store(pool, std::memory_order_release);
}

void
pmtestDetachPool()
{
    Framework *fw = framework();
    if (fw)
        fw->attachedPool.store(nullptr, std::memory_order_release);
}

pmem::PmPool *
pmtestAttachedPool()
{
    Framework *fw = framework();
    return fw ? fw->attachedPool.load(std::memory_order_acquire) : nullptr;
}

uint64_t
pmtestTracesSubmitted()
{
    Framework *fw = framework();
    return fw ? fw->tracesSubmitted.load(std::memory_order_relaxed) : 0;
}

uint64_t
pmtestOpsRecorded()
{
    Framework *fw = framework();
    return fw ? fw->opsRecorded.load(std::memory_order_relaxed) : 0;
}

core::PoolStats
pmtestPoolStats()
{
    Framework *fw = framework();
    return fw ? fw->enginePool().stats() : core::PoolStats();
}

} // namespace pmtest
