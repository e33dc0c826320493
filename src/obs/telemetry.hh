/**
 * @file
 * The telemetry subsystem: low-overhead, per-thread observability for
 * the whole load→verdict pipeline.
 *
 * Three primitives, one registry:
 *
 *  - **Counters** (enum-indexed, per-thread, lock-free): each thread
 *    owns a private slot of relaxed atomics; a hot-path increment is
 *    one uncontended fetch_add on a cache line no other thread
 *    writes. Snapshots sum across slots.
 *  - **Latency histograms** (log2-bucketed): span durations land in
 *    bucket ⌈log2(ns)⌉, so 65 fixed buckets cover 1 ns … 2^64 ns with
 *    no allocation and no locks. Per-thread histograms merge into one
 *    snapshot from which p50/p95/p99 are interpolated.
 *  - **Spans** (Chrome trace-event / Perfetto): every pipeline stage
 *    (capture seal, pool submit, backpressure stall, steal scan,
 *    ingest decode, engine check, report merge/canonicalize, and each
 *    stage of a check run: session.open … session.output) brackets
 *    itself with a SpanScope. Span *durations* always feed the stage
 *    histogram; the timeline *events* are only collected when
 *    explicitly enabled (`Telemetry::enableSpans`), optionally
 *    sampled 1-in-N, and export as a JSON file that loads directly in
 *    chrome://tracing or https://ui.perfetto.dev.
 *
 * Compile-out: building with -DPMTEST_TELEMETRY_ENABLED=0 (CMake
 * option PMTEST_TELEMETRY=OFF) turns the instrumentation hooks —
 * SpanScope, count(), nameThread() — into empty constexpr inlines, so
 * the hot paths contain zero telemetry code. The registry and
 * histogram types themselves stay available (snapshots simply read
 * all-zero), which keeps `pmtest_check --metrics-json` valid and the
 * unit tests compilable in both configurations.
 *
 * Verdict neutrality: nothing in this module reads or writes checking
 * state, so reports are byte-identical with telemetry on, sampled, or
 * compiled out (tested by TelemetryTest.VerdictUnchanged and the
 * PMTEST_TELEMETRY=OFF CI leg).
 */

#ifndef PMTEST_OBS_TELEMETRY_HH
#define PMTEST_OBS_TELEMETRY_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.hh"

#ifndef PMTEST_TELEMETRY_ENABLED
#define PMTEST_TELEMETRY_ENABLED 1
#endif

namespace pmtest
{
class JsonWriter;
}

namespace pmtest::obs
{

/**
 * Pipeline stages that emit spans. Each stage also owns a latency
 * histogram of its span durations.
 */
enum class Stage : uint8_t
{
    CaptureSeal,       ///< TraceCapture::seal — buffer → immutable Trace
    PoolStall,         ///< producer blocked on the full queue (backpressure)
    IngestDecode,      ///< one decode window of a claimed file trace
    EngineCheck,       ///< Engine::check — one trace through the kernel
    ReportMerge,       ///< merging a per-trace report into the aggregate
    ReportCanonicalize,///< sorting the merged report into canonical order
    SourceOpen,        ///< opening/validating one trace source (file)
    HintReplay,        ///< replaying one patched trace to verify a hint
    OracleEnumerate,   ///< crash-state oracle: one crash point explored
    // The check run's stage sequence (core::runCheckTool), in order.
    SessionOpen,        ///< sources, pool (or forked workers), services
    SessionIngest,      ///< every pipeline thread claims and checks traces
    SessionGather,      ///< coordinator: reap workers, load their reports
    SessionDrain,       ///< wait for the pool, final gauge sample
    SessionMerge,       ///< take the pool aggregate / merge worker reports
    SessionCanonicalize,///< canonical (fileId, traceId, opIndex) order
    SessionHints,       ///< --fix-hints replay and document
    SessionWrite,       ///< --report-out wire report
    SessionOutput       ///< stdout, exit metrics, timeline, finding events
};

inline constexpr size_t kStageCount = 18;

/** Stable span/metric name of @p stage (e.g. "engine.check"). */
const char *stageName(Stage stage);

/** Pipeline event counters. */
enum class Counter : uint8_t
{
    TracesSealed,    ///< TraceCapture::seal calls
    OpsSealed,       ///< PM ops in sealed traces
    TracesSubmitted, ///< traces accepted by EnginePool::submit
    SubmitStalls,    ///< producer-side backpressure stalls
    TracesDecoded,   ///< traces ingest() claimed from its source
    TracesChecked,   ///< traces through Engine::check
    OpsChecked,      ///< PM ops through Engine::check
    ReportsMerged,   ///< per-trace reports merged into aggregates
    SourcesIngested, ///< trace sources drained to End by ingest()
    HintsSynthesized,///< findings recorded with a valid FixHint
    HintsVerified,   ///< hints whose patched replay came back clean
    OracleStatesTested, ///< recovery verdicts the oracle obtained
    OracleStatesCovered,///< crash states those verdicts account for
    OracleMemoHits,     ///< verdicts served from the predicate memo
    WatchdogStalls,     ///< stall episodes the metrics watchdog flagged
    MetricsScrapes,     ///< /metrics + /metrics.json requests served
    WorkersSpawned,     ///< distributed-check worker processes forked
    WorkersFailed,      ///< workers that exited abnormally (status > 1)
    /**
     * EnginePool notifies that found a parked worker (a futex-wake
     * proxy): one per EnginePool::kWakeOps ops of unwoken backlog,
     * plus one when a thread starts waiting on the pool (a producer
     * about to block, a drain) and one per submit while it waits.
     */
    PoolWakes
};

inline constexpr size_t kCounterCount = 19;

/** Stable metric name of @p counter (e.g. "traces_checked"). */
const char *counterName(Counter counter);

inline constexpr size_t kHistogramBuckets = 65;

/**
 * Mergeable point-in-time copy of one histogram. Bucket 0 counts
 * zero-duration samples; bucket i (i >= 1) counts samples in
 * [2^(i-1), 2^i) nanoseconds.
 */
struct HistogramSnapshot
{
    std::array<uint64_t, kHistogramBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;

    /** Accumulate @p other into this snapshot (cross-thread merge). */
    void merge(const HistogramSnapshot &other);

    /**
     * Saturating-subtract @p baseline from this snapshot — the
     * baseline-reset primitive: a snapshot minus an earlier snapshot
     * of the same histogram is the activity in between. The observed
     * max cannot be re-derived for a window, so it stays as the raw
     * upper bound (and is zeroed when the window holds no samples).
     */
    void subtract(const HistogramSnapshot &baseline);

    /**
     * Approximate @p p quantile (0 < p <= 1) in nanoseconds, linearly
     * interpolated inside the hit bucket. 0 when empty.
     */
    double quantileNs(double p) const;

    /** Mean sample in nanoseconds (exact; from sum/count). */
    double meanNs() const;

    /** Inclusive lower bound of bucket @p index in nanoseconds. */
    static uint64_t bucketLowerBound(size_t index);
};

/**
 * Lock-free log2-bucketed latency histogram. record() is wait-free
 * (one relaxed fetch_add per field); any thread may record, any
 * thread may snapshot.
 */
class LatencyHistogram
{
  public:
    /** Bucket index a sample of @p nanos lands in. */
    static size_t
    bucketIndex(uint64_t nanos)
    {
        return static_cast<size_t>(std::bit_width(nanos));
    }

    /** Record one sample. */
    void
    record(uint64_t nanos)
    {
        buckets_[bucketIndex(nanos)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(nanos, std::memory_order_relaxed);
        uint64_t seen = max_.load(std::memory_order_relaxed);
        while (nanos > seen &&
               !max_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
        }
    }

    /** Number of samples recorded so far. */
    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Copy the current state into a mergeable snapshot. */
    HistogramSnapshot snapshot() const;

  private:
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/** One collected span, relative to the registry epoch. */
struct SpanEvent
{
    uint64_t startNs; ///< monotonicNanos() at span open
    uint64_t durNs;   ///< span duration
    Stage stage;
};

/** Merged cross-thread view of all counters and stage histograms. */
struct MetricsSnapshot
{
    std::array<uint64_t, kCounterCount> counters{};
    std::array<HistogramSnapshot, kStageCount> stages{};
    uint64_t spansRecorded = 0;
    uint64_t spansDropped = 0;
    uint32_t threads = 0;

    /**
     * Capture time, in nanoseconds since the registry epoch
     * (Telemetry::epochNanos()). Two snapshots of the same registry
     * are directly comparable, which is what makes rate computation
     * between scrapes well-defined.
     */
    uint64_t snapshotNs = 0;

    /**
     * Saturating-subtract @p baseline (counters, histograms, span
     * accounting) — the window of activity since @p baseline was
     * taken. threads and snapshotNs keep this snapshot's values.
     */
    void subtract(const MetricsSnapshot &baseline);

    uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<size_t>(c)];
    }

    const HistogramSnapshot &
    stage(Stage s) const
    {
        return stages[static_cast<size_t>(s)];
    }
};

/**
 * Process-wide telemetry registry. Threads register lazily on first
 * use and keep a private slot for life-of-process (a thread that
 * exits leaves its totals behind for the final snapshot).
 */
class Telemetry
{
  public:
    /** Per-thread span buffer cap; overflow counts as dropped. */
    static constexpr size_t kMaxSpansPerThread = size_t{1} << 20;

    /** The process-wide registry (leaky singleton; never destroyed). */
    static Telemetry &instance();

    /** Add @p n to @p c on the calling thread's slot. Lock-free. */
    void addCount(Counter c, uint64_t n = 1);

    /**
     * Record one completed span: always feeds the stage histogram;
     * appends a timeline event only when span collection is enabled
     * and this sample survives 1-in-N sampling.
     */
    void recordSpan(Stage stage, uint64_t start_ns, uint64_t dur_ns);

    /** Label the calling thread in exported timelines. */
    void setThreadName(std::string name);

    /**
     * Start collecting timeline events, keeping every @p sample_every
     * -th span per thread (1 = all). Histograms and counters are
     * always live and unaffected by this switch.
     */
    void enableSpans(uint64_t sample_every = 1);

    /** Stop collecting timeline events (already-collected ones stay). */
    void disableSpans();

    /** Whether timeline events are currently collected. */
    bool
    spansEnabled() const
    {
        return spansOn_.load(std::memory_order_relaxed);
    }

    /**
     * Merged counters + histograms across all threads ever seen,
     * relative to the last resetForTest() baseline, stamped with the
     * capture time (snapshotNs).
     */
    MetricsSnapshot metrics() const;

    /**
     * Append the "telemetry" metrics object of @p snap (compiled
     * flag, capture timestamp, counters, per-stage histogram
     * quantiles, span accounting) to @p w. The writer must be
     * positioned where an object value is legal.
     */
    void writeMetricsJson(JsonWriter &w,
                          const MetricsSnapshot &snap) const;

    /**
     * Append the full Chrome trace-event document (an object with a
     * "traceEvents" array of "X" duration events plus "M" thread-name
     * metadata) to @p w.
     */
    void writeTraceEventsJson(JsonWriter &w) const;

    /**
     * Write the trace-event document to @p path; loadable in
     * chrome://tracing and ui.perfetto.dev.
     * @return false (with @p error set) when the file cannot be written.
     */
    bool writeTraceEventsFile(const std::string &path,
                              std::string *error = nullptr) const;

    /**
     * Rebase metrics() to zero and drop collected spans. Test
     * support. Implemented as baseline subtraction — the current
     * merged totals become the new baseline and subsequent snapshots
     * report only activity after this call — so it is safe against
     * concurrently recording threads (no destructive store ever races
     * a recorder's fetch_add; a recorder racing the baseline capture
     * lands either before the baseline or after it, never lost).
     */
    void resetForTest();

    /** monotonicNanos() origin of exported span timestamps. */
    uint64_t epochNanos() const { return epochNs_; }

  private:
    struct ThreadSlot
    {
        std::array<std::atomic<uint64_t>, kCounterCount> counters{};
        std::array<LatencyHistogram, kStageCount> stages;
        std::atomic<uint64_t> spansDropped{0};

        std::mutex spanMutex; ///< owner appends, exporters read
        std::vector<SpanEvent> spans;
        uint64_t spanSeq = 0; ///< sampling position, owner-only
        std::string name;     ///< guarded by spanMutex
        uint32_t tid = 0;     ///< 1-based registration order
    };

    Telemetry() : epochNs_(monotonicNanos()) {}

    /** The calling thread's slot, registering it on first use. */
    ThreadSlot &slot();

    /** Merge all slots into one raw snapshot. Caller holds mutex_. */
    MetricsSnapshot mergedLocked() const;

    mutable std::mutex mutex_; ///< guards slots_ growth and baseline_
    std::vector<std::unique_ptr<ThreadSlot>> slots_;
    MetricsSnapshot baseline_; ///< subtracted by metrics()
    std::atomic<bool> spansOn_{false};
    std::atomic<uint64_t> sampleEvery_{1};
    uint64_t epochNs_;
};

// ---------------------------------------------------------------------------
// Instrumentation hooks. These — not the registry above — are what the
// pipeline calls, and what PMTEST_TELEMETRY=OFF compiles down to nothing.
// ---------------------------------------------------------------------------

#if PMTEST_TELEMETRY_ENABLED

/** RAII span: times its scope and records it at destruction. */
class SpanScope
{
  public:
    explicit SpanScope(Stage stage)
        : stage_(stage), start_(monotonicNanos())
    {
    }

    ~SpanScope()
    {
        Telemetry::instance().recordSpan(
            stage_, start_, monotonicNanos() - start_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Stage stage_;
    uint64_t start_;
};

/** Hot-path counter increment. */
inline void
count(Counter c, uint64_t n = 1)
{
    Telemetry::instance().addCount(c, n);
}

/** Label the calling thread in exported timelines. */
inline void
nameThread(std::string name)
{
    Telemetry::instance().setThreadName(std::move(name));
}

#else // !PMTEST_TELEMETRY_ENABLED — zero code in hot paths

class SpanScope
{
  public:
    explicit constexpr SpanScope(Stage) {}
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
};

inline void
count(Counter, uint64_t = 1)
{
}

inline void
nameThread(std::string)
{
}

#endif // PMTEST_TELEMETRY_ENABLED

} // namespace pmtest::obs

#endif // PMTEST_OBS_TELEMETRY_HH
