/**
 * @file
 * The public PMTest interface (paper Table 2): framework lifecycle,
 * persistent-object scope control, trace communication, and the
 * checkers. Also the instrumentation primitives that crash-consistent
 * software (or an instrumented library such as txlib/mnemosyne/pmfs)
 * calls for every PM operation — the equivalent of the WHISPER macro
 * hooks / LLVM-pass injection the paper describes in §4.3.
 *
 * All functions are safe to call when the framework is not
 * initialized: the memory side effects still happen, tracking is
 * simply skipped. This lets the same binary run "native" (no tool)
 * and "under PMTest", which is how the benchmark harnesses measure
 * slowdown.
 */

#ifndef PMTEST_CORE_API_HH
#define PMTEST_CORE_API_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "core/engine_pool.hh"
#include "core/report.hh"
#include "pmem/pm_pool.hh"
#include "util/source_location.hh"

namespace pmtest
{

/** Framework configuration (PMTest_INIT argument). */
struct Config
{
    /** Persistency model whose checking rules apply. */
    core::ModelKind model = core::ModelKind::X86;
    /** Engine worker threads; 0 checks traces inline (ablation). */
    size_t workers = 1;
    /**
     * Bound of the trace queue all workers pop, in traces; a full
     * queue blocks the producer (backpressure). 0 = the paper's
     * 1,024-entry FIFO (core::PoolOptions::kDefaultQueueCapacity);
     * core::PoolOptions::kUnboundedQueue = no bound.
     */
    size_t queueCapacity = 0;
};

/** @{ Framework lifecycle (paper: PMTest_INIT / PMTest_EXIT). */
void pmtestInit(const Config &config = {});
void pmtestExit();
bool pmtestInitialized();
/** @} */

/** Per-thread tracking init (paper: PMTest_THREAD_INIT). */
void pmtestThreadInit();

/** @{ Enable/disable tracking (paper: PMTest_START / PMTest_END). */
void pmtestStart();
void pmtestEnd();
bool pmtestTracking();
/** @} */

/** @{ Persistent-object scope control. */
void pmtestExclude(const void *addr, size_t size);
void pmtestInclude(const void *addr, size_t size);
/** @} */

/** @{ Named-variable registry (REG_VAR / UNREG_VAR / GET_VAR). */
void pmtestRegVar(const std::string &name, const void *addr, size_t size);
void pmtestUnregVar(const std::string &name);
bool pmtestGetVar(const std::string &name, const void **addr,
                  size_t *size);
/** @} */

/** @{ Communication with the checking engine. */
void pmtestSendTrace();
void pmtestGetResult();
/** Submit an externally built trace (kernel FIFO pump uses this). */
void pmtestSubmitTrace(Trace trace);
/**
 * Seal the calling thread's open trace and return it instead of
 * submitting it — the kernel-module path pushes sealed traces into a
 * KernelFifo whose user-space pump thread submits them.
 */
Trace pmtestSealTrace();
/**
 * Route sealed traces to an external tool instead of the PMTest
 * engine pool. Used by the baseline tools (the pmemcheck stand-in
 * consumes the same instrumentation stream, but synchronously).
 * Pass nullptr to restore the default routing.
 */
void pmtestSetTraceSink(std::function<void(Trace &&)> sink);
/** Merged findings so far (drains first). */
core::Report pmtestResults();
/** Drop accumulated findings. */
void pmtestClearResults();
/** @} */

/** @{ Checkers. */
void pmtestIsPersist(const void *addr, size_t size,
                     SourceLocation loc = {});
void pmtestIsOrderedBefore(const void *addr_a, size_t size_a,
                           const void *addr_b, size_t size_b,
                           SourceLocation loc = {});
void pmtestTxCheckerStart(SourceLocation loc = {});
void pmtestTxCheckerEnd(SourceLocation loc = {});
/** @} */

/**
 * @{ Instrumented PM primitives. These perform the real memory
 * operation, mirror it into an attached simulated pool (for crash
 * validation), and record it in the calling thread's trace.
 */
void pmStore(void *dst, const void *src, size_t size,
             SourceLocation loc = {});
void pmClwb(const void *addr, size_t size, SourceLocation loc = {});
void pmClflush(const void *addr, size_t size, SourceLocation loc = {});
void pmSfence(SourceLocation loc = {});
void pmOfence(SourceLocation loc = {});
void pmDfence(SourceLocation loc = {});
void pmDcCvap(const void *addr, size_t size, SourceLocation loc = {});
void pmDsb(SourceLocation loc = {});
/** @} */

/** Typed store convenience wrapper. */
template <typename T>
void
pmAssign(T *dst, const T &value, SourceLocation loc = {})
{
    pmStore(dst, &value, sizeof(T), loc);
}

/** @{ Transactional-library event hooks (consumed by TX checkers). */
void pmTxBegin(SourceLocation loc = {});
void pmTxEnd(SourceLocation loc = {});
void pmTxAdd(const void *addr, size_t size, SourceLocation loc = {});
/** @} */

/**
 * @{ Crash-simulation attachment: when a PmPool built with
 * simulate_crashes is attached, every instrumented store/flush/fence
 * that touches the pool is mirrored into its CacheSim.
 */
void pmtestAttachPool(pmem::PmPool *pool);
void pmtestDetachPool();
pmem::PmPool *pmtestAttachedPool();
/** @} */

/** @{ Statistics. */
uint64_t pmtestTracesSubmitted();
uint64_t pmtestOpsRecorded();
/**
 * Dispatch statistics of the engine pool (queue depth, producer
 * stall time). Empty when the framework is not initialized.
 */
core::PoolStats pmtestPoolStats();
/** @} */

// Paper-style convenience macros that capture file/line, so reports
// point at the annotation site (Fig. 6's "WARN/FAIL @<file>:<line>").
#define PMTEST_STORE(dst, src, size) \
    ::pmtest::pmStore((dst), (src), (size), PMTEST_HERE)
#define PMTEST_ASSIGN(dst, value) \
    ::pmtest::pmAssign((dst), (value), PMTEST_HERE)
#define PMTEST_CLWB(addr, size) \
    ::pmtest::pmClwb((addr), (size), PMTEST_HERE)
#define PMTEST_SFENCE() ::pmtest::pmSfence(PMTEST_HERE)
#define PMTEST_OFENCE() ::pmtest::pmOfence(PMTEST_HERE)
#define PMTEST_DFENCE() ::pmtest::pmDfence(PMTEST_HERE)
#define PMTEST_DC_CVAP(addr, size) \
    ::pmtest::pmDcCvap((addr), (size), PMTEST_HERE)
#define PMTEST_DSB() ::pmtest::pmDsb(PMTEST_HERE)
#define PMTEST_IS_PERSIST(addr, size) \
    ::pmtest::pmtestIsPersist((addr), (size), PMTEST_HERE)
#define PMTEST_IS_ORDERED_BEFORE(a, sa, b, sb) \
    ::pmtest::pmtestIsOrderedBefore((a), (sa), (b), (sb), PMTEST_HERE)
#define PMTEST_TX_CHECKER_START() \
    ::pmtest::pmtestTxCheckerStart(PMTEST_HERE)
#define PMTEST_TX_CHECKER_END() ::pmtest::pmtestTxCheckerEnd(PMTEST_HERE)

} // namespace pmtest

#endif // PMTEST_CORE_API_HH
