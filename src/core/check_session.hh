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
 * A run has one shape: every input opens as one source, checked in
 * this process by the worker threads of one EnginePool.
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

    /** Optional: serialize the final report to PATH (pmtest-report-v2). */
    std::string reportOutPath;

    /** Raw positional arguments (files or directories). */
    std::vector<std::string> inputArgs;

    /** Expanded input files; filled by finalize(). */
    std::vector<std::string> inputs;

    /**
     * Expand directories and reject duplicate inputs. @return false
     * with @p error set; @p usage_hint (when provided) tells the tool
     * whether to print its usage text after the message (no input at
     * all) or not (input/IO errors).
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
 * run state —
 *
 *   open → ingest → drain → merge → canonicalize → hints → write →
 *   output
 *
 * Each stage runs under an obs::SpanScope (session.open, ...), so its
 * duration shows in the telemetry stage block of the metrics
 * documents and in the trace-event timeline. A failed stage ends the
 * run through the same exit path as a finished one, which closes the
 * event log with run_stop.
 *
 * @return 0 (no FAIL findings), 1 (FAIL findings), or 2 (input/IO
 *         errors, messages on stderr).
 */
int runCheckTool(const CheckPlan &plan);

} // namespace pmtest::core

#endif // PMTEST_CORE_CHECK_SESSION_HH
