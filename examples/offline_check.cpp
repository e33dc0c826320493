/**
 * @file
 * Record-once / check-offline: capture a program's PM-operation
 * traces, check them online through the in-process capture source,
 * save them to a file, and later replay the file through the exact
 * same ingest pipeline without re-running the program. Useful when
 * the system under test is slow to set up, or when traces come from
 * another machine.
 *
 * Both checks ride `core::ingest(TraceSource&, EnginePool&, …)`:
 * the online pass pulls from a CaptureTraceSource fed by the trace
 * sink, the offline pass from the file source `openTraceSource`
 * builds over the indexed v2 reader. The two canonical reports are
 * byte-identical — the live and replayed pipelines are the same
 * pipeline.
 *
 * Files are written in the indexed v2 format (per-trace framing plus
 * an index footer), the one format pmtest_check reads: it mmaps them
 * (or reads a pipe to EOF) and decodes in parallel (--decoders=N) —
 * see src/trace/trace_reader.hh.
 *
 *   $ ./offline_check [output.trace] [--trace-events=FILE]
 *
 * With no argument the trace file goes to /tmp and is removed after
 * the check; with an explicit path it is kept, so a pipeline (e.g.
 * the CI offline-check smoke job) can hand it to pmtest_check.
 * --trace-events exports a Chrome trace-event timeline of this
 * process — the recording side of the pipeline, so it includes the
 * capture.seal spans that pmtest_check (which only replays) cannot
 * see.
 */

#include <cstdio>
#include <cstring>

#include "core/api.hh"
#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "obs/telemetry.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "txlib/obj_pool.hh"

namespace
{

using namespace pmtest;

/**
 * Run a (buggy) workload. Sealed traces flow into @p capture for the
 * online check and into @p saved for the save-to-file phase.
 */
void
recordRun(CaptureTraceSource *capture, std::vector<Trace> *saved)
{
    pmtestInit(Config{});
    pmtestSetTraceSink([&](Trace &&trace) {
        saved->push_back(trace);
        capture->push(std::move(trace));
    });
    pmtestThreadInit();
    pmtestStart();

    txlib::ObjPool pool(1 << 20);
    auto *x = static_cast<uint64_t *>(pool.allocRaw(8));
    auto *y = static_cast<uint64_t *>(pool.allocRaw(8));

    // Transaction 1: correct.
    pool.txBegin(PMTEST_HERE);
    pool.txAdd(x, 8, PMTEST_HERE);
    pool.txAssign<uint64_t>(x, 1, PMTEST_HERE);
    pool.txCommit(PMTEST_HERE);
    pmtestSendTrace();

    // Transaction 2: modifies y without backing it up.
    pool.txBegin(PMTEST_HERE);
    pool.txAssign<uint64_t>(y, 2, PMTEST_HERE);
    pool.txCommit(PMTEST_HERE);
    pmtestSendTrace();

    pmtestExit();
    capture->close();
}

/** Drain @p source through the unified ingest; canonical report. */
core::Report
checkSource(TraceSource &source)
{
    core::PoolOptions options;
    options.model = core::ModelKind::X86;
    options.workers = 0; // inline checking; the pipeline is the same
    core::EnginePool pool(options);
    core::IngestOptions ingest_options;
    core::IngestStats stats;
    SourceError error;
    if (!core::ingest(source, pool, ingest_options, &stats, &error)) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     error.str().c_str());
        std::exit(1);
    }
    core::Report merged = pool.takeResults();
    merged.canonicalize();
    return merged;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("== PMTest: offline trace checking ==\n\n");

    std::string out_path;
    std::string trace_events_path;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--trace-events=", 15) == 0) {
            trace_events_path = argv[i] + 15;
        } else if (out_path.empty() && argv[i][0] != '-') {
            out_path = argv[i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [output.trace] "
                         "[--trace-events=FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!trace_events_path.empty()) {
        obs::Telemetry::instance().enableSpans();
        obs::nameThread("main");
    }

    const bool keep = !out_path.empty();
    const std::string path =
        keep ? out_path : "/tmp/pmtest_offline_example.trace";

    // Phase 1: record, checking online through the capture source.
    CaptureTraceSource capture;
    std::vector<Trace> traces;
    recordRun(&capture, &traces);
    const core::Report online = checkSource(capture);
    std::printf("online check:  %zu FAIL, %zu WARN "
                "(live capture source)\n",
                online.failCount(), online.warnCount());

    if (!saveTracesToFile(path, traces)) {
        std::printf("failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("recorded %zu traces to %s\n", traces.size(),
                path.c_str());

    // Phase 2 (possibly days later, possibly elsewhere): reopen the
    // file as a source and run the identical pipeline.
    std::string error;
    auto source = openTraceSource(path, IngestMode::Auto, 0, &error);
    if (!source) {
        std::printf("failed to load traces: %s\n", error.c_str());
        return 1;
    }
    const core::Report offline = checkSource(*source);

    std::printf("offline check: %zu FAIL, %zu WARN\n",
                offline.failCount(), offline.warnCount());
    std::printf("%s", offline.summaryStr().c_str());
    std::printf("online and offline reports %s\n",
                online.str() == offline.str() ? "match"
                                              : "DIFFER");

    if (!keep)
        std::remove(path.c_str());
    if (!trace_events_path.empty()) {
        std::string err;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                trace_events_path, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
        std::printf("wrote trace events to %s\n",
                    trace_events_path.c_str());
    }
    return online.str() == offline.str() ? 0 : 1;
}
