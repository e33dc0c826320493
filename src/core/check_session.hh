/**
 * @file
 * The check-session layer: one place that owns the run lifecycle the
 * command-line tools used to hand-wire — open the inputs as
 * TraceSources, check them through core::ingest on an EnginePool,
 * canonicalize the merged Report, and drive every output surface
 * (stdout report, stats, metrics JSON, trace events, fix hints,
 * structured events, live metrics, linger). The tools reduce to flag
 * parsing: build a CheckPlan, finalize() it, hand it to
 * runCheckTool().
 *
 * Three run shapes share the layer:
 *
 *  - **Plain**: everything pmtest_check always did, unchanged.
 *  - **Worker** (`--worker=i/N --report-out=FILE`): run shard i of an
 *    N-way split of the input set — the byte-balanced index slices of
 *    a single v2 file, or files j with j % N == i of a multi-file set
 *    (fileId = j preserved) — and emit a `pmtest-report-v2` wire
 *    report instead of stdout output.
 *  - **Coordinator** (`--distribute=N`): fork N worker processes,
 *    gather their wire reports, mergeReports() them, and print
 *    exactly what the sequential run prints — the canonical report is
 *    byte-identical because shard slices partition the input and
 *    canonicalize() is order-independent. Worker lifecycle is
 *    observable: worker.spawn / worker.exit events in the event log
 *    and workers_spawned / workers_failed telemetry counters. A
 *    worker that dies (signal, or exit status other than the 0/1
 *    verdict codes) fails the whole run with exit 2, naming the
 *    shard.
 *
 * Forking discipline: the coordinator forks all workers *before*
 * starting any service thread (metrics publisher, scrape server), so
 * a fork never clones a thread holding a lock.
 */

#ifndef PMTEST_CORE_CHECK_SESSION_HH
#define PMTEST_CORE_CHECK_SESSION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/trace_ingest.hh"
#include "obs/metrics_service.hh"
#include "trace/trace_reader.hh"

namespace pmtest::core
{

/**
 * Everything a checking run needs, parsed once by the tool and
 * validated once by finalize(). Field defaults match the tool
 * defaults, so a tool only writes what its flags set.
 */
struct CheckPlan
{
    std::string tool = "pmtest_check";

    // Checking options.
    ModelKind model = ModelKind::X86;
    bool summary = false;
    bool quiet = false;
    bool showStats = false;
    size_t maxFindings = 50;
    /** SIZE_MAX = no explicit flag (resolve via env/core layout). */
    size_t workers = static_cast<size_t>(-1);
    /**
     * Unread: offline checking has no queues. It remains only while
     * bench/pipeline still assigns it.
     */
    size_t queueCap = 0;
    /**
     * Unread: traces are claimed one at a time, not submitted in
     * batches. It remains only while bench/pipeline still assigns it.
     */
    size_t batch = 1;
    /** 0 = no explicit flag (resolve via env/core layout). */
    size_t decoders = 0;
    /** Unread; see IngestOptions::Affinity. */
    IngestOptions::Affinity affinity = IngestOptions::Affinity::Shared;

    // Output surfaces.
    std::string metricsJsonPath;
    std::string traceEventsPath;
    size_t spanSample = 1;
    bool fixHints = false;
    std::string fixHintsPath = "-";

    // Live observability.
    int32_t metricsPort = -1; ///< -1 = no scrape server
    size_t metricsIntervalMs = 1000;
    std::string eventLogPath;
    bool progress = false;
    bool metricsLinger = false;

    // Distributed checking.
    uint32_t workerIndex = 0;
    uint32_t workerCount = 0; ///< > 0 = run as shard workerIndex/N
    size_t distribute = 0;    ///< > 0 = coordinator forking N workers
    /**
     * Worker mode: where the wire report goes (required). Coordinator
     * mode: optional — keeps the per-worker reports at PATH.<i> and
     * writes the merged wire report to PATH. Plain mode: optional —
     * serializes the final report to PATH.
     */
    std::string reportOutPath;

    /** Raw positional arguments (files or directories). */
    std::vector<std::string> inputArgs;

    /** Expanded input files; filled by finalize(). */
    std::vector<std::string> inputs;

    /**
     * Expand directories, reject duplicate inputs, and validate flag
     * combinations. @return false with @p error set; @p usage_hint
     * (when provided) tells the tool whether to print its usage text
     * after the message (flag-combination errors) or not (input/IO
     * errors), matching the historical tool behavior.
     */
    bool finalize(std::string *error, bool *usage_hint = nullptr);
};

/**
 * The observability bracket every tool run shares: a MetricsService
 * plus uniform run_start / run_stop events. Extracted so tools that
 * are not trace-checking runs (pmtest_recall's campaign runner)
 * ride the identical lifecycle as runCheckTool.
 */
class SessionServices
{
  public:
    /**
     * Start the service (event log first; see MetricsService::start).
     * @return false with @p error set — callers exit 2.
     */
    bool start(obs::ServiceOptions options, std::string *error);

    obs::MetricsService &service() { return service_; }
    obs::EventLog &eventLog() { return service_.eventLog(); }

    /** Emit run_start: {"tool": tool, ...extra}. */
    void emitRunStart(
        const char *tool,
        const std::function<void(JsonWriter &)> &extra = nullptr);

    /** Emit run_stop: {...extra, "exit_code": code}. */
    void emitRunStop(
        int exit_code,
        const std::function<void(JsonWriter &)> &extra = nullptr);

    /** Forwarded to MetricsService. */
    void freeze() { service_.freeze(); }
    void stop() { service_.stop(); }

  private:
    obs::MetricsService service_;
};

/**
 * Run a finalized plan: one fixed sequence of named stages over one
 * run state, for every run shape —
 *
 *   open → ingest (coordinator: gather) → drain → merge →
 *   canonicalize → hints → write → output
 *
 * Plain and worker runs differ only in the source open builds. The
 * coordinator's open forks the workers before any service thread
 * starts, and its gather reaps them and loads their wire reports in
 * place of ingest. Each stage runs under an obs::SpanScope
 * (session.open, ...), so its duration shows in the telemetry stage
 * block of the metrics documents and in the trace-event timeline.
 * A failed stage ends the run through the same exit path as a
 * finished one, which closes the event log with run_stop.
 *
 * @return 0 (no FAIL findings), 1 (FAIL findings), or 2 (input/IO
 *         errors or a failed worker, messages on stderr).
 */
int runCheckTool(const CheckPlan &plan);

} // namespace pmtest::core

#endif // PMTEST_CORE_CHECK_SESSION_HH
