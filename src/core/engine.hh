/**
 * @file
 * The checking engine (paper §4.4): sequentially iterates a trace,
 * updating shadow-memory persistency status for PM operations and
 * validating checker entries against it. On top of the low-level
 * rules it implements the transaction-aware high-level checkers
 * (§5.1): missing-backup detection against the TX_ADDed ranges
 * (the paper's "log tree", an IntervalMap like the exclusion list),
 * incomplete-transaction detection via auto-injected isPersist, and
 * the duplicate-log performance checker.
 *
 * Hot-path organization:
 *  - The per-trace checking state (shadow memory, exclusion map, TX
 *    log, TX-checker write list) lives in the engine and is reset —
 *    clearing contents but retaining capacity — rather than rebuilt,
 *    so steady-state checking allocates nothing per trace.
 *  - The per-op loop calls the model through the PersistencyModel
 *    interface, so a new model needs no engine change. Runs of
 *    consecutive writes are batched into one sorted shadow update;
 *    Dispatch::PerOp keeps the plain per-op loop as the oracle the
 *    batched path is verified against.
 *  - The loop runs over windows of ops (begin/feed/finish), so the
 *    offline path checks a trace as it is decoded, one fixed window
 *    at a time, without materializing it; check() is one window.
 */

#ifndef PMTEST_CORE_ENGINE_HH
#define PMTEST_CORE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/persistency_model.hh"
#include "core/report.hh"
#include "core/shadow_memory.hh"
#include "obs/telemetry.hh"
#include "trace/trace.hh"

namespace pmtest::core
{

/**
 * Checks traces against a persistency model. Engines are cheap; each
 * worker thread owns one. check() is stateless across traces — every
 * trace observes a pristine shadow memory, matching the paper's
 * independence of traces — but the backing storage of that state is
 * reused from trace to trace. Engines of different threads are
 * allocated side by side and write their members on every op, so each
 * starts on its own cache line and shares none with its neighbours.
 */
class alignas(64) Engine
{
  public:
    /** How the per-op model rules are invoked. */
    enum class Dispatch
    {
        Batched, ///< batched write runs (default)
        PerOp,   ///< one model call per op (the equivalence oracle)
    };

    explicit Engine(ModelKind kind,
                    Dispatch dispatch = Dispatch::Batched);

    /** Check one trace and produce its report: begin, feed, finish. */
    Report check(const Trace &trace);

    /**
     * Start checking a trace that arrives in windows: reset the
     * per-trace state (discarding any unfinished trace) and open its
     * report.
     */
    void begin(uint64_t trace_id, uint32_t file_id);

    /**
     * Check the next @p count ops of the begun trace, in program
     * order; op indices continue across calls. Any split of a trace
     * into windows yields the same report as check() on it whole.
     */
    void feed(const PmOp *ops, size_t count);

    /**
     * End the begun trace: add the end-of-trace findings and return
     * its report. A report with findings holds @p arena, the string
     * arena its source locations point into; a clean one holds none.
     */
    Report finish(const Report::Arena &arena);

    /** Total PM operations processed across all checked traces. */
    uint64_t opsProcessed() const { return opsProcessed_; }

    /** Total traces checked. */
    uint64_t tracesChecked() const { return tracesChecked_; }

    /** The model in use. */
    const PersistencyModel &model() const { return *model_; }

    /** The dispatch mode in use. */
    Dispatch dispatch() const { return dispatch_; }

  private:
    /**
     * Per-trace checking state, owned by the engine and reset (not
     * reallocated) between traces.
     */
    struct TraceState
    {
        ShadowMemory shadow;
        /** Ranges removed from the testing scope. */
        IntervalMap<bool> exclusions;
        /** Current transaction nesting depth. */
        int txDepth = 0;
        /**
         * The log tree (§5.1.1): ranges backed up via TX_ADD in the
         * open TX. Only its union is ever read (covers()).
         */
        IntervalMap<bool> log;
        /** Whether a TX_CHECKER region is active. */
        bool txCheckActive = false;
        /** Writes observed inside the active TX_CHECKER region. */
        std::vector<std::pair<AddrRange, SourceLocation>> txWrites;

        /** Restore the start-of-trace state, retaining capacity. */
        void reset();
    };

    /**
     * Batched write runs (Dispatch::Batched only): consume the
     * maximal run of consecutive Write ops of @p ops[0, @p count)
     * starting at @p i, applying
     * the per-op transaction checks immediately but deferring the
     * shadow updates into writeBatch_, flushed in one sorted batched
     * assign. A write overlapping a batched one forces a flush first,
     * so application order — and therefore shadow fragmentation,
     * which leaks into finding messages — is preserved exactly.
     * @return the index of the first op after the run.
     */
    size_t runWriteRun(const PmOp *ops, size_t count, size_t i,
                       TraceState &state, Report &report);

    /** Spill writeBatch_ into the shadow memory (sorted, batched). */
    void flushWriteBatch(TraceState &state);

    /**
     * The checks the per-op path performs on a Write before the model
     * applies it: missing-log detection and TX_CHECKER write
     * collection. Shared verbatim by the batched path.
     */
    void preWriteChecks(const PmOp &op, const AddrRange &range,
                        size_t index, TraceState &state,
                        Report &report);

    void handleOp(const PmOp &op, size_t index, TraceState &state,
                  Report &report);
    void handleChecker(const PmOp &op, size_t index, TraceState &state,
                       Report &report);
    void handleTxEvent(const PmOp &op, size_t index, TraceState &state,
                       Report &report);

    /** Whether the op's primary range is fully excluded from testing. */
    static bool excluded(const TraceState &state, const AddrRange &range);

    /** Writes batched per flush (bounds the overlap scan). */
    static constexpr size_t kWriteBatchMax = 32;

    Dispatch dispatch_;
    std::unique_ptr<PersistencyModel> model_;
    TraceState state_;
    /** Report of the begun trace. */
    Report report_;
    /** Ops fed to the begun trace so far (the next op's index). */
    size_t fed_ = 0;
    /** The begun trace's engine.check span. */
    std::optional<obs::SpanScope> span_;
    /** Pending write ranges of the current run (reused storage). */
    std::vector<AddrRange> writeBatch_;
    uint64_t opsProcessed_ = 0;
    uint64_t tracesChecked_ = 0;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_ENGINE_HH
