#include "core/check_session.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
 * Open input files first, first + step, ... as one source, each file
 * stamped with its input index as fileId; several files compose into
 * a MultiTraceSource. The selection must not be empty. (0, 1) is the
 * source a plain run checks, and the re-open of the fix-hints replay
 * pass, which needs the identical fileId assignment.
 * @return nullptr with *error ("path: reason") set on failure.
 */
std::unique_ptr<TraceSource>
openInputFiles(const CheckPlan &plan, size_t first, size_t step,
               std::string *error)
{
    std::vector<std::unique_ptr<TraceSource>> children;
    for (size_t j = first; j < plan.inputs.size(); j += step) {
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

/**
 * The byte-balanced index slices of the single input file (see
 * shardTraceSource). @return no slices, with *error set, when the
 * file cannot be opened.
 */
std::vector<std::unique_ptr<TraceSource>>
shardSingleInput(const CheckPlan &plan, size_t shards,
                 std::string *error)
{
    std::shared_ptr<const TraceFileReader> reader =
        TraceFileReader::open(plan.inputs[0], IngestMode::Auto, error);
    if (!reader)
        return {};
    return shardTraceSource(std::move(reader), plan.inputs[0], 0,
                            shards);
}

/**
 * Build worker workerIndex/workerCount's slice of the input set: for
 * a single input, index slice workerIndex of an N-way
 * shardTraceSource split; for a file set, files j with
 * j % N == workerIndex, keeping fileId = j. Shard slices partition
 * the sequential input exactly, which is what makes the merged
 * distributed report byte-identical. A worker past the end of a
 * short split legitimately has nothing to do: *empty is set and
 * nullptr returned with no error.
 */
std::unique_ptr<TraceSource>
buildWorkerSource(const CheckPlan &plan, bool *empty,
                  std::string *error)
{
    *empty = false;
    if (plan.inputs.size() > 1) {
        if (plan.workerIndex >= plan.inputs.size()) {
            *empty = true;
            return nullptr;
        }
        return openInputFiles(plan, plan.workerIndex, plan.workerCount,
                              error);
    }
    auto slices = shardSingleInput(plan, plan.workerCount, error);
    if (slices.empty())
        return nullptr;
    if (plan.workerIndex >= slices.size()) {
        *empty = true;
        return nullptr;
    }
    return std::move(slices[plan.workerIndex]);
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
 * The state one check run carries from stage to stage. The three run
 * shapes fill different members: plain and worker runs a source and
 * a pool, the coordinator forked pids and gathered worker reports.
 * services is declared last so it is destroyed first: its samplers
 * never outlive the pool and source they read.
 */
struct Run
{
    explicit Run(const CheckPlan &p) : plan(p) {}

    const CheckPlan &plan;
    size_t workers = 0; ///< resolved pool width (the header's count)
    size_t decoders = 0;
    /** What was checked: traces, ops, sources, shard identity. */
    ReportMeta meta;

    /** Null for the coordinator and for a worker with no slice. */
    std::unique_ptr<TraceSource> source;
    /** Null for the coordinator; released once merged. */
    std::unique_ptr<EnginePool> pool;
    IngestProgress progress;
    PoolStats stats;

    std::vector<pid_t> pids; ///< forked workers not yet reaped
    std::vector<std::string> reportPaths; ///< per-worker wire reports
    std::vector<WorkerReport> parts;

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
        if (plan.workerCount > 0)
            w.member("worker", std::to_string(plan.workerIndex) + "/" +
                                   std::to_string(plan.workerCount));
        if (plan.distribute > 0)
            w.member("distribute",
                     static_cast<uint64_t>(plan.distribute));
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
 * Coordinator half of open: fork every worker while this process is
 * still single-threaded. Each child runs its shard as a worker-shaped
 * check run and exits with its verdict.
 */
bool
forkWorkers(Run &run)
{
    const CheckPlan &plan = run.plan;
    // The event-log exit-2 contract must hold before any worker is
    // spawned; the services can only start after the forks.
    if (!plan.eventLogPath.empty() && plan.eventLogPath != "-") {
        std::FILE *probe = std::fopen(plan.eventLogPath.c_str(), "a");
        if (!probe) {
            std::fprintf(stderr, "cannot write %s\n",
                         plan.eventLogPath.c_str());
            return false;
        }
        std::fclose(probe);
    }

    const uint32_t n = static_cast<uint32_t>(plan.distribute);
    const std::string base =
        !plan.reportOutPath.empty()
            ? plan.reportOutPath
            : (fs::temp_directory_path() /
               ("pmtest-report-" + std::to_string(getpid())))
                  .string();
    for (uint32_t i = 0; i < n; i++)
        run.reportPaths.push_back(base + "." + std::to_string(i));

    const char *fail_env = std::getenv("PMTEST_WORKER_FAIL");
    const long fail_index =
        fail_env ? std::strtol(fail_env, nullptr, 10) : -1;
    std::fflush(stdout);
    std::fflush(stderr);
    for (uint32_t i = 0; i < n; i++) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed for worker %u/%u\n", i,
                         n);
            return false;
        }
        if (pid == 0) {
            // Worker child: a fault-injection hook for the CI
            // worker-death leg, then the shard run.
            if (fail_index == static_cast<long>(i))
                raise(SIGKILL);
            CheckPlan worker = plan;
            worker.workerIndex = i;
            worker.workerCount = n;
            worker.distribute = 0;
            worker.reportOutPath = run.reportPaths[i];
            worker.quiet = true;
            worker.showStats = false;
            worker.metricsPort = -1;
            worker.progress = false;
            worker.metricsLinger = false;
            worker.eventLogPath.clear();
            worker.metricsJsonPath.clear();
            worker.traceEventsPath.clear();
            std::_Exit(runCheckTool(worker));
        }
        run.pids.push_back(pid);
        obs::count(obs::Counter::WorkersSpawned);
    }
    return true;
}

/**
 * Plain/worker half of open: the source this shape checks and the
 * pool that checks it.
 */
bool
openSource(Run &run)
{
    const CheckPlan &plan = run.plan;
    std::string error;
    bool worker_empty = false;
    run.source = plan.workerCount > 0
                     ? buildWorkerSource(plan, &worker_empty, &error)
                     : openInputFiles(plan, 0, 1, &error);
    if (!run.source && !worker_empty) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    run.meta.workerIndex = plan.workerIndex;
    run.meta.workerCount = plan.workerCount;
    run.meta.model = plan.model;
    if (run.source) {
        run.meta.traceCount = run.source->traceCount();
        run.meta.totalOps = run.source->totalOps();
        run.meta.sourceCount = run.source->sourceCount();
    }
    PoolOptions options;
    options.model = plan.model;
    options.workers = run.workers;
    run.pool = std::make_unique<EnginePool>(options);
    return true;
}

/**
 * open: resolve the thread layout, build the shape's inputs, then
 * start the services and open the audit trail with run_start.
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
    if (!(plan.distribute > 0 ? forkWorkers(run) : openSource(run)))
        return false;

    obs::ServiceOptions options;
    options.tool = plan.tool;
    options.metricsPort = plan.metricsPort;
    options.intervalMs = plan.metricsIntervalMs;
    options.progress = plan.progress;
    options.eventLogPath = plan.eventLogPath;
    options.finalSample = !plan.metricsJsonPath.empty();
    if (run.pool)
        options.poolSampler = [&pool = *run.pool] {
            return pool.stats();
        };
    if (run.source)
        options.ingestSampler = [&run] {
            return sampleIngestGauges(*run.source, &run.progress);
        };
    std::string error;
    if (!run.services.start(std::move(options), &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    run.services.emitRunStart(plan.tool.c_str(), [&](JsonWriter &w) {
        w.member("model", makeModel(plan.model)->name());
        w.member("inputs", plan.inputs.size());
        w.member("workers", run.workers);
        w.member("decoders", run.decoders);
        if (plan.workerCount > 0) {
            w.member("worker", static_cast<uint64_t>(plan.workerIndex));
            w.member("of", static_cast<uint64_t>(plan.workerCount));
        }
        if (plan.distribute > 0)
            w.member("distribute",
                     static_cast<uint64_t>(plan.distribute));
    });
    if (run.source)
        emitSourceOpenEvents(run.services.eventLog(), *run.source);
    for (size_t i = 0; i < run.pids.size(); i++) {
        run.services.eventLog().emit(
            obs::EventSeverity::Info, "worker.spawn",
            [&](JsonWriter &w) {
                w.member("worker", static_cast<uint64_t>(i));
                w.member("of", static_cast<uint64_t>(plan.distribute));
                w.member("pid", static_cast<int64_t>(run.pids[i]));
                w.member("report", run.reportPaths[i]);
            });
    }
    return true;
}

/** ingest: the pool's workers and the decoders check the source. */
bool
ingestStage(Run &run)
{
    if (!run.source)
        return true;
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
 * gather (coordinator, in place of ingest): reap every worker — {0,1}
 * are the verdict exit codes, so anything else, or a signal, is a
 * failed shard — then load the wire reports.
 */
bool
gatherStage(Run &run)
{
    const uint64_t n = run.pids.size();
    std::vector<std::string> failures;
    for (uint64_t i = 0; i < n; i++) {
        const pid_t pid = run.pids[i];
        int status = 0;
        const pid_t reaped = waitpid(pid, &status, 0);
        int exit_code = -1;
        int signal_no = 0;
        bool ok = false;
        if (reaped == pid && WIFEXITED(status)) {
            exit_code = WEXITSTATUS(status);
            ok = exit_code == 0 || exit_code == 1;
        } else if (reaped == pid && WIFSIGNALED(status)) {
            signal_no = WTERMSIG(status);
        }
        run.services.eventLog().emit(
            ok ? obs::EventSeverity::Info : obs::EventSeverity::Error,
            "worker.exit", [&](JsonWriter &w) {
                w.member("worker", i);
                w.member("of", n);
                w.member("pid", static_cast<int64_t>(pid));
                w.member("ok", ok);
                w.member("exit_code", exit_code);
                w.member("signal", signal_no);
            });
        if (!ok) {
            obs::count(obs::Counter::WorkersFailed);
            failures.push_back(
                "worker " + std::to_string(i) + "/" +
                std::to_string(n) + " (pid " + std::to_string(pid) +
                ") " +
                (signal_no != 0
                     ? "killed by signal " + std::to_string(signal_no)
                     : "exited with status " +
                           std::to_string(exit_code)));
        }
    }
    run.pids.clear();
    for (const auto &what : failures)
        std::fprintf(stderr, "distributed check failed: %s\n",
                     what.c_str());
    if (!failures.empty())
        return false;

    run.parts.resize(n);
    for (uint64_t i = 0; i < n; i++) {
        std::string error;
        if (!loadReportFile(run.reportPaths[i], &run.parts[i].report,
                            &run.parts[i].meta, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return false;
        }
    }
    return true;
}

/**
 * drain: wait until every submitted trace is checked, then take the
 * final sample and detach the samplers before the pool dies; the
 * scrape server keeps serving the frozen sample.
 */
bool
drainStage(Run &run)
{
    if (run.pool) {
        run.pool->drain();
        run.stats = run.pool->stats();
    }
    run.services.freeze();
    return true;
}

/** merge: the pool's aggregate, or the gathered worker reports. */
bool
mergeStage(Run &run)
{
    if (run.pool) {
        run.merged = run.pool->takeResults();
        run.pool.reset();
    } else {
        mergeReports(std::move(run.parts), &run.merged, &run.meta);
    }
    return true;
}

/**
 * canonicalize: (fileId, traceId, opIndex) order, so every shard/
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
    auto replay_source = openInputFiles(plan, 0, 1, &error);
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
 * output: the stdout report (not for a worker, whose stdout belongs
 * to the coordinator) with --stats, the exit metrics document, the
 * trace-event timeline, then the finding events. Findings go out
 * after the hints stage so hint_verified is final.
 */
bool
outputStage(Run &run)
{
    const CheckPlan &plan = run.plan;
    if (plan.workerCount == 0 && !plan.quiet)
        printReportStdout(run);
    // An explicit --stats request wins over --quiet.
    if (plan.workerCount == 0 && plan.showStats) {
        if (run.source && run.source->sourceCount() > 1)
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
 * The one exit path of every run shape: close the audit trail with
 * run_stop (exit code 2 when a stage failed), linger on a verdict,
 * reap workers a failed open left behind, remove the coordinator's
 * temporary reports, and stop the services.
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
    for (const pid_t pid : run.pids)
        waitpid(pid, nullptr, 0);
    if (plan.reportOutPath.empty()) {
        for (const auto &path : run.reportPaths) {
            std::error_code ec;
            fs::remove(path, ec);
        }
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

    if (workerCount > 0 && distribute > 0)
        return usage_error(
            "--worker and --distribute are mutually exclusive");
    if (workerCount > 0) {
        if (workerIndex >= workerCount)
            return usage_error(
                "--worker index out of range (want i/N with i < N)");
        if (reportOutPath.empty())
            return usage_error("--worker needs --report-out=FILE");
    }
    if (workerCount > 0 || distribute > 0) {
        const char *mode =
            workerCount > 0 ? "--worker" : "--distribute";
        if (fixHints)
            return usage_error(std::string(mode) +
                               " cannot combine with --fix-hints");
        if (metricsLinger)
            return usage_error(std::string(mode) +
                               " cannot combine with "
                               "--metrics-linger");
    }
    if (distribute > 0) {
        if (showStats)
            return usage_error("--stats is per-process; not "
                               "supported with --distribute");
        if (!traceEventsPath.empty())
            return usage_error("--trace-events is per-process; not "
                               "supported with --distribute");
    }
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
        plan.distribute > 0 ? Step{S::SessionGather, gatherStage}
                            : Step{S::SessionIngest, ingestStage},
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
