#include "core/check_session.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/engine_pool.hh"
#include "core/fix_verify.hh"
#include "core/live_gauges.hh"
#include "core/report_io.hh"
#include "obs/telemetry.hh"
#include "trace/trace_source.hh"
#include "util/cpu.hh"
#include "util/json.hh"

namespace pmtest::core
{

namespace
{

namespace fs = std::filesystem;

/**
 * Expand positional arguments into the flat input-file list:
 * directories contribute their regular files in sorted name order,
 * plain paths pass through.
 */
bool
expandInputs(const std::vector<std::string> &args,
             std::vector<std::string> *files, std::string *error)
{
    for (const auto &arg : args) {
        std::error_code ec;
        if (fs::is_directory(arg, ec)) {
            std::vector<std::string> entries;
            for (const auto &entry : fs::directory_iterator(arg, ec)) {
                if (entry.is_regular_file())
                    entries.push_back(entry.path().string());
            }
            if (ec) {
                *error = arg + ": cannot read directory";
                return false;
            }
            if (entries.empty()) {
                *error = arg + ": no trace files in directory";
                return false;
            }
            std::sort(entries.begin(), entries.end());
            files->insert(files->end(), entries.begin(),
                          entries.end());
        } else {
            files->push_back(arg);
        }
    }
    return true;
}

/**
 * Reject the same file appearing twice in the input set (directly or
 * via directory expansion): duplicate traces would double every
 * finding. Compares canonicalized paths so "a.trc" and "./a.trc"
 * collide.
 */
bool
rejectDuplicates(const std::vector<std::string> &files,
                 std::string *error)
{
    std::vector<std::string> seen;
    for (const auto &file : files) {
        std::error_code ec;
        fs::path canon = fs::weakly_canonical(file, ec);
        const std::string key = ec ? file : canon.string();
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
            *error = "duplicate input: " + file;
            return false;
        }
        seen.push_back(key);
    }
    return true;
}

/**
 * Open every input file as one source, each file stamped with its
 * input index as fileId; several files compose into a
 * MultiTraceSource. The fix-hints replay pass re-opens the inputs
 * through here too, so it sees the identical fileId assignment.
 * @return nullptr with *error ("path: reason") set on failure.
 */
std::unique_ptr<TraceSource>
openInputFiles(const CheckPlan &plan, std::string *error)
{
    std::vector<std::unique_ptr<TraceSource>> children;
    for (size_t j = 0; j < plan.inputs.size(); j++) {
        auto child = openTraceSource(plan.inputs[j], IngestMode::Auto,
                                     static_cast<uint32_t>(j), error);
        if (!child)
            return nullptr;
        children.push_back(std::move(child));
    }
    if (children.size() == 1)
        return std::move(children[0]);
    return std::make_unique<MultiTraceSource>(std::move(children));
}

/** One "  source NAME: ..." line per leaf source. */
void
printSourceStats(const TraceSource &source)
{
    for (const auto &g : sampleIngestGauges(source, nullptr).sources)
        std::printf("  source %s: %llu traces, %llu ops, %llu bytes "
                    "%s\n",
                    g.label.c_str(),
                    static_cast<unsigned long long>(g.tracesTotal),
                    static_cast<unsigned long long>(g.opsTotal),
                    static_cast<unsigned long long>(g.bytesTotal),
                    g.mmapBacked ? "mmapped" : "buffered");
}

/**
 * One "  oracle: ..." line when a ground-truth oracle ran in this
 * process (pmtest_check itself does not run one; the line appears
 * when the binary is linked into an oracle-driving harness). Covered
 * vs tested is the representative-mode pruning win.
 */
void
printOracleStats()
{
    const auto snap = obs::Telemetry::instance().metrics();
    const uint64_t tested =
        snap.counter(obs::Counter::OracleStatesTested);
    if (tested == 0)
        return;
    const uint64_t covered =
        snap.counter(obs::Counter::OracleStatesCovered);
    const uint64_t hits = snap.counter(obs::Counter::OracleMemoHits);
    std::printf("  oracle: %llu states tested covering %llu "
                "(%.1fx reduction), %llu memo hits\n",
                static_cast<unsigned long long>(tested),
                static_cast<unsigned long long>(covered),
                tested ? double(covered) / double(tested) : 1.0,
                static_cast<unsigned long long>(hits));
}

/** One "source_open" event per leaf source of @p source. */
void
emitSourceOpenEvents(obs::EventLog &log, const TraceSource &source)
{
    for (const auto &g : sampleIngestGauges(source, nullptr).sources)
        log.emit(obs::EventSeverity::Info, "source_open",
                 [&](JsonWriter &w) {
                     w.member("source", g.label);
                     w.member("traces_total_known", g.tracesTotalKnown);
                     w.member("traces_total", g.tracesTotal);
                     w.member("bytes_total", g.bytesTotal);
                     w.member("mmap_backed", g.mmapBacked);
                 });
}

/**
 * A finding's evidence as event fields: range_a/range_b as
 * {addr, size}, epoch_a/epoch_b (2^64-1 is an interval that never
 * closes). An IncompleteTx finding carries the write's location as
 * write_loc; its range_b is empty.
 */
void
writeEvidence(JsonWriter &w, const Finding &finding)
{
    const Evidence &e = finding.evidence;
    const bool has_write = finding.cause == Cause::TxUpdateNotPersisted;
    const auto range = [&](const char *key, const AddrRange &r) {
        w.key(key).beginObject();
        w.member("addr", r.addr);
        w.member("size", r.size);
        w.endObject();
    };
    range("range_a", e.rangeA);
    range("range_b", has_write ? AddrRange{} : e.rangeB);
    if (has_write)
        w.member("write_loc", e.writeLoc.str());
    w.member("epoch_a", e.epochA);
    w.member("epoch_b", e.epochB);
}

/**
 * One "finding" event per canonical finding, capped so a pathological
 * input cannot turn the event log into a second copy of the report.
 */
void
emitFindingEvents(obs::EventLog &log, const Report &merged)
{
    constexpr size_t kMaxFindingEvents = 10000;
    size_t emitted = 0;
    for (const auto &finding : merged.findings()) {
        if (emitted++ == kMaxFindingEvents) {
            log.emit(obs::EventSeverity::Warn, "findings_truncated",
                     [&](JsonWriter &w) {
                         w.member("emitted", kMaxFindingEvents);
                         w.member("total",
                                  merged.findings().size());
                     });
            break;
        }
        const auto severity = finding.severity == Severity::Fail
                                  ? obs::EventSeverity::Error
                                  : obs::EventSeverity::Warn;
        log.emit(severity, "finding", [&](JsonWriter &w) {
            w.member("verdict", finding.severity == Severity::Fail
                                    ? "FAIL"
                                    : "WARN");
            w.member("kind", findingKindName(finding.kind));
            w.member("cause", causeName(finding.cause));
            w.member("message", findingMessage(finding));
            w.member("loc", finding.loc.str());
            writeEvidence(w, finding);
            w.member("file_id",
                     static_cast<uint64_t>(finding.fileId));
            w.member("trace_id", finding.traceId);
            w.member("op_index",
                     static_cast<uint64_t>(finding.opIndex));
            w.member("hint_valid", finding.hint.valid());
            w.member("hint_verified", finding.hint.verified);
        });
    }
}

/**
 * The state one check run carries from stage to stage. services is
 * declared last so it is destroyed first: its samplers never outlive
 * the pool and source they read.
 */
struct Run
{
    explicit Run(const CheckPlan &p) : plan(p) {}

    const CheckPlan &plan;
    size_t workers = 0; ///< resolved pool width (the header's count)
    size_t decoders = 0;
    /** What was checked: traces, ops, sources. */
    ReportMeta meta;

    std::unique_ptr<TraceSource> source;
    /** Released once merged. */
    std::unique_ptr<EnginePool> pool;
    IngestProgress progress;
    PoolStats stats;

    Report merged;
    SessionServices services;
};

/** The stdout report: header line plus summary or finding list. */
void
printReportStdout(const Run &run)
{
    const CheckPlan &plan = run.plan;
    const std::string display =
        plan.inputs.size() == 1
            ? plan.inputs[0]
            : std::to_string(plan.inputs.size()) + " files";
    std::printf("%s: %zu traces, %zu PM operations, model=%s, "
                "%zu workers\n",
                display.c_str(), static_cast<size_t>(run.meta.traceCount),
                static_cast<size_t>(run.meta.totalOps),
                makeModel(plan.model)->name(), run.workers);
    const Report &merged = run.merged;
    if (plan.summary) {
        std::printf("%s", merged.summaryStr().c_str());
        return;
    }
    std::printf("%zu FAIL, %zu WARN\n", merged.failCount(),
                merged.warnCount());
    size_t shown = 0;
    for (const auto &finding : merged.findings()) {
        if (shown++ == plan.maxFindings) {
            std::printf("  ... (%zu more; use --summary)\n",
                        merged.findings().size() - shown + 1);
            break;
        }
        std::printf("  %s\n", finding.str().c_str());
    }
}

/**
 * The exit metrics document: the publisher's frozen final sample plus
 * the run identity and verdict. The gauges froze with the pool; the
 * registry is re-read so every stage that already ended is in it.
 */
bool
writeExitMetrics(Run &run)
{
    const CheckPlan &plan = run.plan;
    obs::GaugeSample sample = run.services.service().publisher()->latest();
    sample.metrics = obs::Telemetry::instance().metrics();
    obs::ExitBlocks exit;
    exit.run = [&](JsonWriter &w) {
        std::string joined;
        for (const auto &input : plan.inputs)
            joined += (joined.empty() ? "" : ",") + input;
        w.member("trace_file", joined);
        w.member("model", makeModel(plan.model)->name());
        w.member("traces", run.meta.traceCount);
        w.member("ops", run.meta.totalOps);
        w.member("workers", run.workers);
        w.member("sources", run.meta.sourceCount);
    };
    exit.verdict = [&](JsonWriter &w) {
        w.member("fail", run.merged.failCount());
        w.member("warn", run.merged.warnCount());
        w.member("findings", run.merged.findings().size());
    };
    JsonWriter w;
    obs::renderMetricsJson(w, sample, plan.tool, &exit);
    std::string error;
    if (writeJsonFile(plan.metricsJsonPath, w, &error))
        return true;
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
}

volatile std::sig_atomic_t g_linger_stop = 0;

void
lingerSignalHandler(int)
{
    g_linger_stop = 1;
}

/**
 * --metrics-linger: keep answering scrapes with the frozen final
 * sample until somebody tells us to go (the CI smoke leg curls here,
 * then SIGTERMs). The verdict exit code is preserved.
 */
void
lingerUntilSignalled(obs::MetricsService &service)
{
    if (service.port() == 0)
        return;
    std::signal(SIGINT, lingerSignalHandler);
    std::signal(SIGTERM, lingerSignalHandler);
    std::fprintf(stderr,
                 "pmtest: run complete; metrics linger on "
                 "http://127.0.0.1:%u (SIGINT/SIGTERM to exit)\n",
                 static_cast<unsigned>(service.port()));
    while (!g_linger_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/**
 * open: resolve the thread layout, open the source and the pool that
 * checks it, then start the services and open the audit trail with
 * run_start.
 */
bool
openStage(Run &run)
{
    const CheckPlan &plan = run.plan;
    // Explicit flag beats PMTEST_WORKERS / PMTEST_DECODERS, which
    // beat the hardware-derived layout (see util/cpu.hh).
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    run.workers = plan.workers == static_cast<size_t>(-1)
                      ? layout.workers
                      : plan.workers;
    run.decoders = plan.decoders == 0 ? layout.decoders : plan.decoders;
    std::string error;
    run.source = openInputFiles(plan, &error);
    if (!run.source) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    run.meta.model = plan.model;
    run.meta.traceCount = run.source->traceCount();
    run.meta.totalOps = run.source->totalOps();
    run.meta.sourceCount = run.source->sourceCount();
    PoolOptions pool_options;
    pool_options.model = plan.model;
    pool_options.workers = run.workers;
    run.pool = std::make_unique<EnginePool>(pool_options);

    obs::ServiceOptions options;
    options.tool = plan.tool;
    options.metricsPort = plan.metricsPort;
    options.intervalMs = plan.metricsIntervalMs;
    options.progress = plan.progress;
    options.eventLogPath = plan.eventLogPath;
    options.finalSample = !plan.metricsJsonPath.empty();
    options.poolSampler = [&pool = *run.pool] { return pool.stats(); };
    options.ingestSampler = [&run] {
        return sampleIngestGauges(*run.source, &run.progress);
    };
    if (!run.services.start(std::move(options), &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    run.services.emitRunStart(plan.tool.c_str(), [&](JsonWriter &w) {
        w.member("model", makeModel(plan.model)->name());
        w.member("inputs", plan.inputs.size());
        w.member("workers", run.workers);
        w.member("decoders", run.decoders);
    });
    emitSourceOpenEvents(run.services.eventLog(), *run.source);
    return true;
}

/** ingest: the pool's workers and the decoders check the source. */
bool
ingestStage(Run &run)
{
    IngestOptions options;
    options.decoders = run.decoders;
    options.progress = &run.progress;
    SourceError error;
    if (ingest(*run.source, *run.pool, options, nullptr, &error))
        return true;
    std::fprintf(stderr, "%s\n", error.str().c_str());
    return false;
}

/**
 * drain: wait until every submitted trace is checked, then take the
 * final sample and detach the samplers before the pool dies; the
 * scrape server keeps serving the frozen sample.
 */
bool
drainStage(Run &run)
{
    run.pool->drain();
    run.stats = run.pool->stats();
    run.services.freeze();
    return true;
}

/** merge: take the pool's aggregate and release the pool. */
bool
mergeStage(Run &run)
{
    run.merged = run.pool->takeResults();
    run.pool.reset();
    return true;
}

/**
 * canonicalize: (fileId, traceId, opIndex) order, so every
 * decoder/worker configuration prints byte-identical reports.
 */
bool
canonicalizeStage(Run &run)
{
    run.merged.canonicalize();
    return true;
}

/**
 * hints (--fix-hints): the detect→repair→verify pass. Re-open the
 * inputs (the primary source is drained), patch each hinted
 * finding's trace, replay it through the same engine, and emit the
 * fixhints document.
 */
bool
hintsStage(Run &run)
{
    const CheckPlan &plan = run.plan;
    if (!plan.fixHints)
        return true;
    std::string error;
    auto replay_source = openInputFiles(plan, &error);
    if (!replay_source) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    SourceError replay_error;
    const HintVerifyStats hint_stats = verifyHints(
        run.merged, *replay_source, plan.model, &replay_error);
    if (!replay_error.message.empty())
        std::fprintf(stderr, "fix-hints replay: %s\n",
                     replay_error.str().c_str());

    JsonWriter w;
    writeFixHintsJson(w, run.merged, hint_stats, plan.model);
    if (!writeJsonFile(plan.fixHintsPath, w, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    if (plan.fixHintsPath != "-" && !plan.quiet) {
        std::printf("fix hints: %zu candidates, %zu verified, "
                    "%zu rejected -> %s\n",
                    hint_stats.candidates, hint_stats.verified,
                    hint_stats.rejected, plan.fixHintsPath.c_str());
    }
    return true;
}

/** write (--report-out): the pmtest-report-v2 wire report. */
bool
writeStage(Run &run)
{
    std::string error;
    if (run.plan.reportOutPath.empty() ||
        saveReportFile(run.plan.reportOutPath, run.merged, run.meta,
                       &error))
        return true;
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
}

/**
 * output: the stdout report with --stats, the exit metrics document,
 * the trace-event timeline, then the finding events. Findings go out
 * after the hints stage so hint_verified is final.
 */
bool
outputStage(Run &run)
{
    const CheckPlan &plan = run.plan;
    if (!plan.quiet)
        printReportStdout(run);
    // An explicit --stats request wins over --quiet.
    if (plan.showStats) {
        if (run.source->sourceCount() > 1)
            printSourceStats(*run.source);
        std::printf("%s", run.stats.str().c_str());
        printOracleStats();
    }
    // The machine-readable outputs are files; they are written
    // whatever the stdout flags say.
    if (!plan.metricsJsonPath.empty() && !writeExitMetrics(run))
        return false;
    if (!plan.traceEventsPath.empty()) {
        std::string error;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                plan.traceEventsPath, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return false;
        }
    }
    emitFindingEvents(run.services.eventLog(), run.merged);
    return true;
}

/**
 * The one exit path of every run: close the audit trail with
 * run_stop (exit code 2 when a stage failed), linger on a verdict,
 * and stop the services.
 */
int
finishRun(Run &run, bool ok)
{
    const CheckPlan &plan = run.plan;
    const int exit_code =
        !ok ? 2 : run.merged.failCount() == 0 ? 0 : 1;
    if (ok) {
        run.services.emitRunStop(exit_code, [&](JsonWriter &w) {
            w.member("traces", run.meta.traceCount);
            w.member("ops", run.meta.totalOps);
            w.member("fail", run.merged.failCount());
            w.member("warn", run.merged.warnCount());
        });
        if (plan.metricsLinger)
            lingerUntilSignalled(run.services.service());
    } else {
        // Stop the tick thread first so no sampled event (source_eof,
        // watchdog_stall) can land after run_stop.
        run.services.freeze();
        run.services.emitRunStop(2);
    }
    run.services.stop();
    return exit_code;
}

} // namespace

bool
CheckPlan::finalize(std::string *error, bool *usage_hint)
{
    const auto usage_error = [&](std::string message) {
        *error = std::move(message);
        if (usage_hint)
            *usage_hint = true;
        return false;
    };
    const auto input_error = [&](std::string message) {
        *error = std::move(message);
        if (usage_hint)
            *usage_hint = false;
        return false;
    };

    if (inputArgs.empty())
        return usage_error("missing input trace file");
    std::string expand_error;
    inputs.clear();
    if (!expandInputs(inputArgs, &inputs, &expand_error))
        return input_error(expand_error);
    if (!rejectDuplicates(inputs, &expand_error))
        return input_error(expand_error);
    return true;
}

bool
SessionServices::start(obs::ServiceOptions options,
                       std::string *error)
{
    return service_.start(std::move(options), error);
}

void
SessionServices::emitRunStart(
    const char *tool, const std::function<void(JsonWriter &)> &extra)
{
    service_.eventLog().emit(obs::EventSeverity::Info, "run_start",
                             [&](JsonWriter &w) {
                                 w.member("tool", tool);
                                 if (extra)
                                     extra(w);
                             });
}

void
SessionServices::emitRunStop(
    int exit_code, const std::function<void(JsonWriter &)> &extra)
{
    service_.eventLog().emit(obs::EventSeverity::Info, "run_stop",
                             [&](JsonWriter &w) {
                                 if (extra)
                                     extra(w);
                                 w.member("exit_code", exit_code);
                             });
}

int
runCheckTool(const CheckPlan &plan)
{
    // Span collection must start before the pipeline so capture-side
    // and ingest-side spans land in the timeline.
    if (!plan.traceEventsPath.empty())
        obs::Telemetry::instance().enableSpans(plan.spanSample);
    obs::nameThread("main");

    struct Step
    {
        obs::Stage stage;
        bool (*run)(Run &);
    };
    using S = obs::Stage;
    const Step steps[] = {
        {S::SessionOpen, openStage},
        {S::SessionIngest, ingestStage},
        {S::SessionDrain, drainStage},
        {S::SessionMerge, mergeStage},
        {S::SessionCanonicalize, canonicalizeStage},
        {S::SessionHints, hintsStage},
        {S::SessionWrite, writeStage},
        {S::SessionOutput, outputStage},
    };
    Run run(plan);
    for (const Step &step : steps) {
        bool ok;
        {
            obs::SpanScope span(step.stage);
            ok = step.run(run);
        }
        if (!ok)
            return finishRun(run, false);
    }
    return finishRun(run, true);
}

} // namespace pmtest::core
