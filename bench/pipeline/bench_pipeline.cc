/**
 * @file
 * bench_pipeline: the known-answer benchmark for PMTest's load→verdict
 * checking and online slowdown. One workload per process:
 *
 *   bench_pipeline --workload=NAME [--seed=N] [--seconds=S]
 *                  [--traced] [--smoke] [--work-dir=DIR]
 *
 * Offline workloads record a SyntheticProgram to v2 trace files during
 * set-up, then check them in a closed loop through the real tool path
 * (core::runCheckTool, quiet, --report-out, every other CheckPlan
 * default). After each pass, untimed, the report is read back and
 * compared with the injected-bug answer. The online workload runs
 * memcached-lite under the YCSB-A client with live checking
 * (Config{}), one repetition after another.
 *
 * Without --traced the run reports the end-to-end metrics; with
 * --traced it reports the per-layer metrics instead, timed from
 * outside around calls into each module (see README.md). --smoke
 * shrinks the inputs and runs both, for the ctest registration.
 *
 * Progress goes to stderr; the result is one JSON object on the last
 * line of stdout. Exit 0 = every verdict matched, 1 = a verdict did
 * not, 2 = usage or I/O error (no result printed).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/pipeline/peak_rss.hh"
#include "bench/pipeline/program.hh"
#include "core/api.hh"
#include "core/check_session.hh"
#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/report_io.hh"
#include "core/trace_ingest.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "util/cli.hh"
#include "util/clock.hh"
#include "util/cpu.hh"
#include "util/json.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::bench;
namespace fs = std::filesystem;

/** Thrown for input/output failures: the run cannot produce a result. */
struct IoError
{
    std::string what;
};

struct WorkloadDef
{
    const char *name;
    bool online;
    SyntheticSpec synthetic;
    KvSpec kv;
};

/**
 * The workloads. Each stresses a different layer, and each bypasses
 * something another one exercises (README.md says which and why).
 */
std::vector<WorkloadDef>
workloadTable(bool smoke)
{
    const size_t scale = smoke ? 50 : 1;
    return {
        // Many small traces on a 256 KiB hot set, across four files:
        // decode, dispatch and multi-source placement dominate.
        {"offline_small_set", false,
         {.files = 4, .tracesPerFile = 4000 / scale, .minRounds = 48,
          .maxRounds = 48, .slots = 4096, .bugEvery = 64},
         {}},
        // A dozen long traces over an 8 MiB span: the kernel and
        // shadow map dominate, and the longest trace sets the pass
        // time.
        {"offline_large_sparse", false,
         {.files = 1, .tracesPerFile = 12, .minRounds = 20000 / scale,
          .maxRounds = 80000 / scale, .slots = 131072, .persistPct = 70,
          .orderedPct = 15, .bugEvery = 4096},
         {}},
        // A bug in every 4 rounds: finding emission, fix hints, report
        // merge, canonicalize and the wire write dominate.
        {"offline_bug_dense", false,
         {.files = 1, .tracesPerFile = 4000 / scale, .minRounds = 64,
          .maxRounds = 64, .slots = 4096, .bugEvery = 4,
          .mixedBugs = true},
         {}},
        // Capture and live submit; no file layer at all.
        {"online_kv", true, {},
         {.requests = 150000 / scale, .keys = 10000 / scale,
          .valueSize = 128}},
    };
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Everything one run reports. */
struct Results
{
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };

    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, double>> info;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(std::string name, double value, const char *unit)
    {
        metrics.push_back({std::move(name), value, unit});
    }

    /** Count one verdict check; report the first few mismatches. */
    void
    check(bool ok, const std::string &what)
    {
        attempted++;
        if (ok)
            return;
        if (failed++ < 5)
            std::fprintf(stderr, "verdict mismatch: %s\n", what.c_str());
    }
};

/** The finding identities of @p report, sorted. */
std::vector<ExpectedFinding>
identities(const core::Report &report)
{
    std::vector<ExpectedFinding> out;
    out.reserve(report.findings().size());
    for (const auto &f : report.findings())
        out.push_back({f.fileId, f.traceId, f.opIndex, f.kind});
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Live traces carry process-wide capture ids, so a live verdict is
 * compared on (opIndex, kind) alone.
 */
std::vector<ExpectedFinding>
withoutIds(std::vector<ExpectedFinding> findings)
{
    for (auto &f : findings) {
        f.fileId = 0;
        f.traceId = 0;
    }
    std::sort(findings.begin(), findings.end());
    return findings;
}

/** The source a plain pmtest_check run builds: fileId = input order. */
std::unique_ptr<TraceSource>
openInputs(const std::vector<std::string> &paths)
{
    std::string error;
    std::vector<std::unique_ptr<TraceSource>> children;
    for (size_t i = 0; i < paths.size(); i++) {
        auto child = openTraceSource(paths[i], IngestMode::Auto,
                                     static_cast<uint32_t>(i), &error);
        if (!child)
            throw IoError{error};
        children.push_back(std::move(child));
    }
    if (children.size() == 1)
        return std::move(children[0]);
    return std::make_unique<MultiTraceSource>(std::move(children));
}

/**
 * One execution with capture on and every sealed trace handed to
 * @p sink instead of an engine. @return seconds; @p traces and @p ops
 * (when given) receive the capture counters.
 */
double
runCapture(Program &program, std::function<void(Trace &&)> sink,
           uint64_t *traces = nullptr, uint64_t *ops = nullptr)
{
    Config config;
    config.workers = 0; // the sink takes every trace
    pmtestInit(config);
    pmtestSetTraceSink(std::move(sink));
    pmtestThreadInit();
    pmtestStart();
    Timer timer;
    program.execute(true);
    pmtestSendTrace();
    const double seconds = timer.elapsedSec();
    if (traces)
        *traces = pmtestTracesSubmitted();
    if (ops)
        *ops = pmtestOpsRecorded();
    pmtestEnd();
    pmtestSetTraceSink(nullptr);
    pmtestExit();
    return seconds;
}

/** Capture every trace @p program seals, in order. */
std::vector<Trace>
record(Program &program)
{
    std::vector<Trace> traces;
    traces.reserve(program.traces());
    runCapture(program, [&](Trace &&trace) {
        program.normalize(trace);
        traces.push_back(std::move(trace));
    });
    return traces;
}

/**
 * Write @p traces as v2 files of @p per_file traces each, numbering
 * traces from 0 within each file. @return the paths.
 */
std::vector<std::string>
writeFiles(std::vector<Trace> traces, size_t per_file,
           const fs::path &dir, const std::string &stem)
{
    std::vector<std::string> paths;
    per_file = std::max<size_t>(per_file, 1);
    for (size_t first = 0; first < traces.size(); first += per_file) {
        const size_t last = std::min(traces.size(), first + per_file);
        std::vector<Trace> part;
        part.reserve(last - first);
        for (size_t i = first; i < last; i++) {
            traces[i].setIdentity(i - first, 0);
            part.push_back(std::move(traces[i]));
        }
        const std::string path =
            (dir / (stem + std::to_string(paths.size()) + ".trace"))
                .string();
        if (!saveTracesToFile(path, part))
            throw IoError{"cannot write " + path};
        paths.push_back(path);
    }
    return paths;
}

/** A recorded input set and the verdict it must produce. */
struct Recorded
{
    std::vector<std::string> paths;
    KnownAnswer answer;
};

/** Hand freed set-up memory back so it does not count as peak RSS. */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** Start a new peak-RSS phase (see peak_rss.hh). */
void
startPeakPhase()
{
    if (!resetPeakRss())
        throw IoError{"cannot reset VmHWM via /proc/self/clear_refs"};
}

/**
 * One closed-loop pass through the real tool path. @return seconds;
 * @p peak_kb, when given, receives the pass's own peak RSS.
 */
double
checkPass(const Recorded &input, const std::string &report_path,
          Results &results, size_t *peak_kb = nullptr)
{
    if (peak_kb)
        startPeakPhase();
    Timer timer;
    core::CheckPlan plan;
    plan.tool = "bench_pipeline";
    plan.quiet = true;
    plan.reportOutPath = report_path;
    plan.inputArgs = input.paths;
    std::string error;
    if (!plan.finalize(&error))
        throw IoError{error};
    const int exit_code = core::runCheckTool(plan);
    const double seconds = timer.elapsedSec();
    if (peak_kb)
        *peak_kb = peakRssKb();
    if (exit_code == 2)
        throw IoError{"pmtest check failed on the recorded inputs"};

    // Untimed: read the report back and hold it against the answer.
    core::Report report;
    core::ReportMeta meta;
    if (!core::loadReportFile(report_path, &report, &meta, &error))
        throw IoError{error};
    const bool any_fail = report.failCount() > 0;
    results.check(exit_code == (any_fail ? 1 : 0) &&
                      meta.traceCount == input.answer.traces &&
                      meta.totalOps == input.answer.ops &&
                      identities(report) == input.answer.findings,
                  "offline pass: " +
                      std::to_string(report.findings().size()) +
                      " findings, " +
                      std::to_string(input.answer.findings.size()) +
                      " expected");
    return seconds;
}

/**
 * The check-session pipeline recomposed from its public parts, each
 * stage timed from outside. Mirrors CheckSession::run for a plain
 * run: same source, layout, pool and ingest options.
 */
struct TracedPass
{
    double wall = 0;
    double open = 0;
    double spawn = 0;
    double ingest = 0;
    double drain = 0;
    double join = 0;
    double canonicalize = 0;
    double write = 0;
    double close = 0;
    core::IngestStats ingestStats;
    core::PoolStats poolStats;

    double
    stages() const
    {
        return open + spawn + ingest + drain + join + canonicalize +
               write + close;
    }
};

TracedPass
tracedPass(const Recorded &input, const std::string &report_path,
           Results &results)
{
    const core::CheckPlan defaults;
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    TracedPass pass;
    Timer wall;
    Timer stage;
    const auto lap = [&stage] {
        const double seconds = stage.elapsedSec();
        stage.reset();
        return seconds;
    };

    auto source = openInputs(input.paths);
    core::ReportMeta meta;
    meta.traceCount = source->traceCount();
    meta.totalOps = source->totalOps();
    meta.sourceCount = source->sourceCount();
    pass.open = lap();

    core::PoolOptions pool_options;
    pool_options.model = defaults.model;
    pool_options.workers = layout.workers;
    pool_options.queueCapacity = defaults.queueCap;
    auto pool = std::make_unique<core::EnginePool>(pool_options);
    pass.spawn = lap();

    core::IngestOptions ingest_options;
    ingest_options.decoders = layout.decoders;
    ingest_options.batch = defaults.batch;
    ingest_options.affinity = defaults.affinity;
    SourceError source_error;
    if (!core::ingest(*source, *pool, ingest_options, &pass.ingestStats,
                      &source_error))
        throw IoError{source_error.str()};
    pass.ingest = lap();

    core::Report merged = pool->results();
    pass.poolStats = pool->stats();
    pass.drain = lap();

    pool.reset();
    pass.join = lap();

    merged.canonicalize();
    pass.canonicalize = lap();

    std::string error;
    if (!core::saveReportFile(report_path, merged, meta, &error))
        throw IoError{error};
    pass.write = lap();

    source.reset();
    pass.close = lap();
    pass.wall = wall.elapsedSec();

    results.check(identities(merged) == input.answer.findings,
                  "traced pass");
    return pass;
}

/** Single-threaded layer costs over the whole input. */
struct SerialPass
{
    double decode = 0;
    double engine = 0;
    double merge = 0;
    double render = 0;
    uint64_t bytes = 0;
    uint64_t ops = 0;
    size_t findings = 0;
};

SerialPass
serialPass(const Recorded &input, std::vector<double> &trace_us,
           Results &results)
{
    SerialPass pass;
    auto source = openInputs(input.paths);
    pass.bytes = source->sizeBytes();

    std::vector<Trace> traces;
    SourceError source_error;
    Timer timer;
    for (;;) {
        const auto pulled = source->pull(64, &traces, &source_error);
        if (pulled == TraceSource::Pull::Error)
            throw IoError{source_error.str()};
        if (pulled == TraceSource::Pull::End)
            break;
    }
    pass.decode = timer.elapsedSec();

    core::Engine engine(core::ModelKind::X86);
    std::vector<core::Report> reports;
    reports.reserve(traces.size());
    timer.reset();
    for (const Trace &trace : traces) {
        Timer one;
        reports.push_back(engine.check(trace));
        trace_us.push_back(one.elapsedNs() * 1e-3);
        pass.ops += trace.size();
    }
    pass.engine = timer.elapsedSec();

    core::Report merged;
    timer.reset();
    for (const auto &report : reports)
        merged.merge(report);
    pass.merge = timer.elapsedSec();

    merged.canonicalize();
    timer.reset();
    const std::string text = merged.str();
    pass.render = timer.elapsedSec();
    pass.findings = merged.findings().size();

    results.check(identities(merged) == input.answer.findings,
                  "serial engine pass");
    return pass;
}

/** One execution under live checking (Config{}). */
struct LiveRun
{
    double seconds = 0;   ///< program start to verdict
    double getResult = 0; ///< the final pmtestGetResult
    double spawnJoin = 0; ///< pmtestInit + pmtestExit
    uint64_t traces = 0;
    uint64_t ops = 0;
    size_t peakKb = 0; ///< peak RSS from pmtestInit to the verdict
    core::PoolStats stats;
};

LiveRun
runLive(Program &program, Results &results)
{
    LiveRun run;
    startPeakPhase();
    Timer lifecycle;
    pmtestInit(Config{});
    run.spawnJoin = lifecycle.elapsedSec();
    pmtestThreadInit();
    pmtestStart();

    Timer timer;
    program.execute(true);
    pmtestSendTrace();
    Timer get_result;
    pmtestGetResult();
    run.getResult = get_result.elapsedSec();
    run.seconds = timer.elapsedSec();
    run.peakKb = peakRssKb();

    run.traces = pmtestTracesSubmitted();
    run.ops = pmtestOpsRecorded();
    run.stats = pmtestPoolStats();
    const core::Report report = pmtestResults();
    pmtestEnd();
    lifecycle.reset();
    pmtestExit();
    run.spawnJoin += lifecycle.elapsedSec();

    results.check(run.traces == program.traces() &&
                      withoutIds(identities(report)) ==
                          withoutIds(program.findings()),
                  "live run: " + std::to_string(run.traces) +
                      " traces, " +
                      std::to_string(report.findings().size()) +
                      " findings");
    return run;
}

double
runNative(Program &program)
{
    Timer timer;
    program.execute(false);
    return timer.elapsedSec();
}

/** Knobs that differ between a full run and a smoke run. */
struct RunShape
{
    double seconds = 10;
    /** Set-ups: at least this many, and at least setupSeconds. */
    size_t setups = 5;
    double setupSeconds = 1;
    size_t minPasses = 3;
    size_t tracedPairs = 11;
    size_t serialReps = 3;
    size_t appTriples = 5;
};

/** A workload's inputs, built from the seed by the timed set-up. */
class Bench
{
  public:
    Bench(const WorkloadDef &def, uint64_t seed, fs::path dir)
        : def_(def), seed_(seed), dir_(std::move(dir)),
          reportPath_((dir_ / "report.pmr").string())
    {
    }

    /** Removes the recorded inputs and the report. */
    ~Bench()
    {
        std::error_code ec;
        for (const auto &path : recorded_.paths)
            fs::remove(path, ec);
        fs::remove(reportPath_, ec);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /**
     * Build the inputs at least @p times times and for at least
     * @p min_seconds in total. @return each set-up's seconds.
     */
    std::vector<double>
    setup(size_t times, double min_seconds = 0)
    {
        std::vector<double> seconds;
        double total = 0;
        while (seconds.size() < times || total < min_seconds) {
            program_.reset();
            recorded_ = Recorded{};
            Timer timer;
            if (def_.online) {
                program_ = std::make_unique<KvProgram>(def_.kv, seed_);
            } else {
                auto synthetic = std::make_unique<SyntheticProgram>(
                    def_.synthetic, seed_);
                recorded_.paths =
                    writeFiles(record(*synthetic),
                               synthetic->tracesPerFile(), dir_, "input");
                recorded_.answer = synthetic->answer();
                program_ = std::move(synthetic);
            }
            seconds.push_back(timer.elapsedSec());
            total += seconds.back();
        }
        trimHeap();
        return seconds;
    }

    /** End-to-end metrics: closed-loop passes for @p shape.seconds. */
    void
    endToEnd(const RunShape &shape, Results &results)
    {
        std::vector<double> setups =
            setup(shape.setups, shape.setupSeconds);

        // Each pass gets its own peak-RSS phase; the median pass peak
        // is steadier than one high-water mark over the whole run.
        std::vector<double> walls, mops, peaks;
        Timer elapsed;
        while (walls.size() < shape.minPasses ||
               elapsed.elapsedSec() < shape.seconds) {
            size_t peak_kb = 0;
            if (def_.online) {
                const LiveRun run = runLive(*program_, results);
                walls.push_back(run.seconds);
                mops.push_back(run.ops / run.seconds * 1e-6);
                peak_kb = run.peakKb;
            } else {
                walls.push_back(
                    checkPass(recorded_, reportPath_, results, &peak_kb));
                mops.push_back(recorded_.answer.ops / walls.back() * 1e-6);
            }
            peaks.push_back(peak_kb / 1024.0);
        }

        results.add("check_mops_per_s", median(mops), "Mops/s");
        results.add("peak_rss_mb", median(peaks), "MB");
        results.add("setup_s", median(setups), "s");
        results.info.emplace_back("setups", setups.size());
        results.info.emplace_back("passes", walls.size());
        results.info.emplace_back("pass_p50_ms", median(walls) * 1e3);
        results.info.emplace_back("pass_p90_ms",
                                  quantile(walls, 0.9) * 1e3);
        results.info.emplace_back("requests", program_->requests());
        results.info.emplace_back("traces", program_->traces());
    }

    /** Per-layer metrics (README.md maps each to what it moves). */
    void
    perLayer(const RunShape &shape, Results &results)
    {
        setup(1);
        const PoolLayer live = appLayers(shape, results);
        if (def_.online) {
            // The file layers see the online workload's traces as an
            // offline replay of one recording.
            std::vector<Trace> traces = record(*program_);
            recorded_.answer = KnownAnswer{};
            recorded_.answer.traces = program_->traces();
            for (const Trace &trace : traces)
                recorded_.answer.ops += trace.size();
            const size_t count = traces.size();
            recorded_.paths =
                writeFiles(std::move(traces), count, dir_, "replay");
        }
        // The pool on the workload's critical path: the live pool
        // online, the offline pipeline's pool otherwise.
        fileLayers(shape, results, def_.online ? &live : nullptr);
    }

  private:
    /** The engine-pool layer's metrics for one workload. */
    struct PoolLayer
    {
        double drainMs = 0;
        double spawnJoinMs = 0;
        double steals = 0;
        /** Producer time blocked on full queues, per unit of wall. */
        double stallShare = 0;
        double imbalance = 1;
    };

    /** Native / capture / live executions of the program. */
    PoolLayer
    appLayers(const RunShape &shape, Results &results)
    {
        const auto drop_trace = [](Trace &&) {};
        std::vector<double> native, capture_ratio, live_ratio;
        std::vector<double> get_result, spawn_join, steals, stall;
        std::vector<double> imbalance;
        uint64_t traces = 0, ops = 0;
        for (size_t i = 0; i < shape.appTriples; i++) {
            double n = 0, c = 0;
            LiveRun l;
            // Alternate the order so drift favours no side.
            if (i % 2 == 0) {
                n = runNative(*program_);
                c = runCapture(*program_, drop_trace, &traces, &ops);
                l = runLive(*program_, results);
            } else {
                l = runLive(*program_, results);
                c = runCapture(*program_, drop_trace, &traces, &ops);
                n = runNative(*program_);
            }
            native.push_back(n);
            capture_ratio.push_back(c / n);
            live_ratio.push_back(l.seconds / n);
            get_result.push_back(l.getResult * 1e3);
            spawn_join.push_back(l.spawnJoin * 1e3);
            steals.push_back(l.stats.steals);
            stall.push_back(l.stats.producerStallNanos * 1e-9 / l.seconds);
            imbalance.push_back(workerImbalance(l.stats));
        }
        results.add("app.native_kops_per_s",
                    program_->requests() / median(native) * 1e-3, "k/s");
        results.add("app.slowdown", median(live_ratio), "x");
        results.add("capture.slowdown", median(capture_ratio), "x");
        results.add("api.traces", traces, "count");
        results.add("api.ops_recorded", ops, "count");
        return {median(get_result), median(spawn_join), median(steals),
                median(stall), median(imbalance)};
    }

    static double
    workerImbalance(const core::PoolStats &stats)
    {
        if (stats.workers.empty())
            return 1;
        uint64_t max = 0, sum = 0;
        for (const auto &w : stats.workers) {
            max = std::max(max, w.opsProcessed);
            sum += w.opsProcessed;
        }
        return sum == 0 ? 1
                        : static_cast<double>(max) * stats.workers.size() /
                              static_cast<double>(sum);
    }

    /**
     * The offline pipeline over the recorded files: end-to-end passes
     * alternating with traced passes, then serial layer costs. A
     * non-null @p live replaces the pipeline pool's metrics.
     */
    void
    fileLayers(const RunShape &shape, Results &results,
               const PoolLayer *live)
    {
        std::vector<double> e2e;
        std::vector<TracedPass> traced;
        for (size_t i = 0; i < shape.tracedPairs; i++) {
            if (i % 2 == 0) {
                e2e.push_back(checkPass(recorded_, reportPath_, results));
                traced.push_back(
                    tracedPass(recorded_, reportPath_, results));
            } else {
                traced.push_back(
                    tracedPass(recorded_, reportPath_, results));
                e2e.push_back(checkPass(recorded_, reportPath_, results));
            }
        }
        // Report the stage split of the median traced pass, so its
        // stages and residual add up to its wall time exactly.
        std::sort(traced.begin(), traced.end(),
                  [](const TracedPass &a, const TracedPass &b) {
                      return a.wall < b.wall;
                  });
        const TracedPass &tp = traced[(traced.size() - 1) / 2];

        std::vector<double> decode, engine, merge, render, trace_us;
        SerialPass serial;
        for (size_t i = 0; i < shape.serialReps; i++) {
            serial = serialPass(recorded_, trace_us, results);
            decode.push_back(serial.decode);
            engine.push_back(serial.engine);
            merge.push_back(serial.merge);
            render.push_back(serial.render);
        }
        const double e2e_p50 = median(e2e);

        results.add("trace.open_ms", tp.open * 1e3, "ms");
        results.add("trace.close_ms", tp.close * 1e3, "ms");
        results.add("trace.decode_busy_ms", median(decode) * 1e3, "ms");
        results.add("trace.decode_mb_per_s",
                    serial.bytes / median(decode) * 1e-6, "MB/s");
        results.add("ingest.wall_ms", tp.ingest * 1e3, "ms");
        results.add("ingest.decode_ms",
                    tp.ingestStats.decodeNanos * 1e-6, "ms");
        results.add("ingest.stall_ms", tp.ingestStats.stallNanos * 1e-6,
                    "ms");

        const PoolLayer pool =
            live ? *live
                 : PoolLayer{tp.drain * 1e3, (tp.spawn + tp.join) * 1e3,
                             static_cast<double>(tp.poolStats.steals),
                             tp.poolStats.producerStallNanos * 1e-9 /
                                 tp.wall,
                             workerImbalance(tp.poolStats)};
        results.add("pool.drain_ms", pool.drainMs, "ms");
        results.add("pool.spawn_join_ms", pool.spawnJoinMs, "ms");
        results.add("pool.steals", pool.steals, "count");
        results.add("pool.stall_share", pool.stallShare, "ratio");
        results.add("pool.worker_imbalance", pool.imbalance, "ratio");

        results.add("engine.check_busy_ms", median(engine) * 1e3, "ms");
        results.add("engine.mops_per_s",
                    serial.ops / median(engine) * 1e-6, "Mops/s");
        results.add("engine.trace_p50_us", quantile(trace_us, 0.5), "us");
        results.add("engine.trace_p99_us", quantile(trace_us, 0.99),
                    "us");
        results.add("report.merge_ms", median(merge) * 1e3, "ms");
        results.add("report.canonicalize_ms", tp.canonicalize * 1e3, "ms");
        results.add("report.render_ms", median(render) * 1e3, "ms");
        results.add("report.write_ms", tp.write * 1e3, "ms");
        results.add("report.findings", serial.findings, "count");

        results.add("pass.wall_p50_ms", e2e_p50 * 1e3, "ms");
        results.add("pass.wall_p90_ms", quantile(e2e, 0.9) * 1e3, "ms");
        results.add("pipeline.wall_ms", tp.wall * 1e3, "ms");
        results.add("pipeline.residual_ms", (tp.wall - tp.stages()) * 1e3,
                    "ms");
        results.add("session.overhead_ms", (e2e_p50 - tp.wall) * 1e3,
                    "ms");
        const double serial_busy = tp.open + median(decode) +
                                   median(engine) + median(merge) +
                                   tp.canonicalize + tp.write + tp.close;
        results.add("pipeline.overlap", serial_busy / e2e_p50, "ratio");
    }

    const WorkloadDef &def_;
    uint64_t seed_;
    fs::path dir_;
    std::string reportPath_;
    std::unique_ptr<Program> program_;
    Recorded recorded_;
};

void
printResult(const std::string &workload, uint64_t seed, bool traced,
            const Results &results)
{
    const util::PipelineLayout layout = util::defaultPipelineLayout();
    JsonWriter w;
    w.beginObject();
    w.member("workload", workload);
    w.member("seed", seed);
    w.member("traced", traced);
    w.member("hardware_concurrency",
             static_cast<uint64_t>(util::hardwareThreads()));
    w.key("layout").beginObject();
    w.member("workers", static_cast<uint64_t>(layout.workers));
    w.member("decoders", static_cast<uint64_t>(layout.decoders));
    w.endObject();
    w.member("correct", results.failed == 0 && results.attempted > 0);
    w.member("attempted", results.attempted);
    w.member("failed", results.failed);
    w.key("metrics").beginObject();
    for (const auto &m : results.metrics) {
        w.key(m.name).beginObject();
        w.member("value", m.value, 9);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.key("info").beginObject();
    for (const auto &[name, value] : results.info)
        w.member(name, value, 6);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    size_t seed = 1;
    size_t seconds = 10;
    bool traced = false;
    bool smoke = false;
    std::string work_dir = "bench_pipeline.work";
    util::CliParser cli("bench_pipeline");
    cli.addString("--workload", &workload,
                  "offline_small_set | offline_large_sparse | "
                  "offline_bug_dense | online_kv");
    cli.addSize("--seed", &seed, "input seed (default 1)");
    cli.addSize("--seconds", &seconds,
                "measured seconds of closed-loop passes (default 10)");
    cli.addFlag("--traced", &traced,
                "report the per-layer metrics instead");
    cli.addFlag("--smoke", &smoke,
                "tiny inputs, end-to-end and per-layer in one run");
    cli.addString("--work-dir", &work_dir,
                  "scratch directory for the recorded inputs "
                  "(emptied of them on exit)");
    cli.positionalCount(0, 0);
    const auto status = cli.parse(argc, argv);
    if (status != util::CliStatus::Ok)
        return util::cliExitCode(status);

    const auto defs = workloadTable(smoke);
    const auto def = std::find_if(
        defs.begin(), defs.end(),
        [&](const WorkloadDef &d) { return workload == d.name; });
    if (def == defs.end()) {
        cli.usageError("unknown --workload '" + workload + "'");
        return 2;
    }

    RunShape shape;
    shape.seconds = static_cast<double>(seconds);
    if (smoke) {
        shape = {.seconds = 0, .setups = 1, .setupSeconds = 0,
                 .minPasses = 2,
                 .tracedPairs = 1, .serialReps = 1, .appTriples = 1};
    }

    std::error_code ec;
    const fs::path dir(work_dir);
    fs::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
        return 2;
    }

    Results results;
    int exit_code = 0;
    try {
        Bench bench(*def, seed, dir);
        if (smoke || !traced)
            bench.endToEnd(shape, results);
        if (smoke || traced)
            bench.perLayer(shape, results);
    } catch (const IoError &error) {
        std::fprintf(stderr, "bench_pipeline: %s\n", error.what.c_str());
        exit_code = 2;
    }
    fs::remove(dir, ec); // only if nothing else was left in it
    if (exit_code != 0)
        return exit_code;

    printResult(workload, seed, traced, results);
    return results.failed == 0 ? 0 : 1;
}
