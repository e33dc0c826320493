/**
 * @file
 * Offline ingest harness: load→verdict wall time and peak-RSS growth
 * of the v2 mmap-parallel ingest pipeline against a serial
 * decode-and-check loop over the same file, on two file shapes:
 *
 *  - table1_small: many small traces (the Table 1 micro-benchmark
 *    shape) — dispatch-bound, where parallel decode overlapping the
 *    engine pool pays off.
 *  - few_large: a handful of big traces — decode-bound, where the
 *    per-trace frame index lets decoders work on different traces at
 *    once.
 *
 * Phases per shape (each measures its own peak RSS: the VmHWM mark
 * is reset before every phase, see bench/pipeline/peak_rss.hh):
 *  1. v2 + mmap + 4 decoders + worker pool   (the pipeline)
 *  2. v2 + mmap + 2 decoders + worker pool   (scaling point)
 *  3. v2 + mmap + 1 decoder  + worker pool   (overlap only)
 *  4. v2 + mmap + 4 decoders over 4 shards   (--shards path; Auto
 *     affinity resolves to pinned decoder→worker placement here)
 *  5. same, affinity forced to shared        (placement comparison)
 *  6. v2 split across 3 files + 4 decoders   (multi-file path)
 *  7. v2 + decode loop + one inline engine   (the serial baseline)
 *
 * Every phase produces a canonicalized Report; verdict_match asserts
 * every configuration's merged report is byte-identical to the
 * serial one — the determinism contract of the TraceSource pipeline.
 * File ids are normalised first: the multi-file phase stamps each
 * part's findings with that part's id, the others with 0. The exit
 * status is 1 on any mismatch.
 *
 * Flags:
 *  --smoke        tiny workload; CI uses this to validate the harness
 *                 and capture the JSON.
 *  --json=PATH    where to write the JSON (default BENCH_ingest.json).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/pipeline/peak_rss.hh"
#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/clock.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** Start a phase's peak-RSS window. @return its starting RSS (KiB). */
size_t
startPhaseRss()
{
    bench::resetPeakRss();
    return bench::peakRssKb();
}

/**
 * The comparable verdict of a canonical report: counts plus every
 * finding with its file id zeroed. Trace ids are unique across the
 * part files, so the canonical order is the same with or without the
 * split.
 */
std::string
verdictOf(const Report &report)
{
    std::string out = std::to_string(report.failCount()) + " FAIL, " +
                      std::to_string(report.warnCount()) + " WARN\n";
    for (Finding finding : report.findings()) {
        finding.fileId = 0;
        out += finding.str() + "\n";
    }
    return out;
}

/**
 * Synthesize traces with a persist/flush pattern; roughly one in
 * sixty-four rounds skips the writeback, so every shape produces
 * findings (the verdict comparison must compare something
 * non-trivial) while the check stage stays op-dominated rather than
 * finding-report-dominated, as in the paper's mostly-correct
 * workloads.
 */
std::vector<Trace>
makeTraces(size_t count, size_t rounds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Trace> traces;
    traces.reserve(count);
    for (size_t t = 0; t < count; t++) {
        Trace trace(t, static_cast<uint32_t>(t % 4));
        for (size_t i = 0; i < rounds; i++) {
            const uint64_t addr = 64 * rng.below(4096);
            trace.append(PmOp::write(addr, 64));
            if (rng.below(64) != 0)
                trace.append(PmOp::clwb(addr, 64));
            trace.append(PmOp::sfence());
            trace.append(PmOp::isPersist(addr, 64));
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

/** One timed load→verdict phase. */
struct Phase
{
    std::string name;
    double seconds = 0;
    size_t rssGrowthKb = 0;
    std::string verdict; ///< verdictOf() the canonical report
    size_t failCount = 0;
};

/** Drain @p source through ingest() into a pool; canonical verdict. */
Phase
runSource(std::string name, std::unique_ptr<TraceSource> source,
          size_t decoders, size_t workers, Timer &timer,
          size_t rss_before,
          IngestOptions::Affinity affinity = IngestOptions::Affinity::Auto)
{
    Phase phase;
    phase.name = std::move(name);

    PoolOptions options;
    options.workers = workers;
    EnginePool pool(options);
    IngestOptions ingest_options;
    ingest_options.decoders = decoders;
    ingest_options.batch = 32;
    ingest_options.affinity = affinity;
    IngestStats stats;
    SourceError error;
    if (!ingest(*source, pool, ingest_options, &stats, &error)) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     error.str().c_str());
        std::exit(1);
    }
    Report merged = pool.takeResults();
    merged.canonicalize();

    phase.seconds = timer.elapsedSec();
    phase.rssGrowthKb = bench::peakRssKb() - rss_before;
    phase.verdict = verdictOf(merged);
    phase.failCount = merged.failCount();
    return phase;
}

/** v2 file → decoder team → engine pool (optionally sharded). */
Phase
runPipeline(const std::string &path, size_t decoders, size_t workers,
            size_t shards = 1,
            IngestOptions::Affinity affinity = IngestOptions::Affinity::Auto)
{
    std::string name = "v2_mmap_" + std::to_string(decoders) + "dec";
    if (shards > 1)
        name += "_sh" + std::to_string(shards);
    if (affinity == IngestOptions::Affinity::Pinned)
        name += "_pin";
    else if (affinity == IngestOptions::Affinity::Shared)
        name += "_shr";
    const size_t rss_before = startPhaseRss();
    Timer timer;

    std::string error;
    std::unique_ptr<TraceSource> source;
    if (shards > 1) {
        std::shared_ptr<const TraceFileReader> reader =
            TraceFileReader::open(path, IngestMode::Mmap, &error);
        if (!reader) {
            std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                         error.c_str());
            std::exit(1);
        }
        source = std::make_unique<MultiTraceSource>(
            shardTraceSource(std::move(reader), path, 0, shards));
    } else {
        source = openTraceSource(path, IngestMode::Mmap, 0, &error);
        if (!source) {
            std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                         error.c_str());
            std::exit(1);
        }
    }
    return runSource(std::move(name), std::move(source), decoders,
                     workers, timer, rss_before, affinity);
}

/** The same trace set split across several v2 files. */
Phase
runMultiFile(const std::vector<std::string> &paths, size_t decoders,
             size_t workers)
{
    std::string name = "v2_multi" + std::to_string(paths.size()) +
                       "_" + std::to_string(decoders) + "dec";
    const size_t rss_before = startPhaseRss();
    Timer timer;

    std::vector<std::unique_ptr<TraceSource>> children;
    children.reserve(paths.size());
    for (size_t i = 0; i < paths.size(); i++) {
        std::string error;
        auto child = openTraceSource(paths[i], IngestMode::Mmap,
                                     static_cast<uint32_t>(i),
                                     &error);
        if (!child) {
            std::fprintf(stderr, "open %s: %s\n", paths[i].c_str(),
                         error.c_str());
            std::exit(1);
        }
        children.push_back(std::move(child));
    }
    auto source =
        std::make_unique<MultiTraceSource>(std::move(children));
    return runSource(std::move(name), std::move(source), decoders,
                     workers, timer, rss_before);
}

/** v2 file → decode loop → one inline engine, in file order. */
Phase
runSerialBaseline(const std::string &path)
{
    Phase phase;
    phase.name = "v2_serial";
    const size_t rss_before = startPhaseRss();
    Timer timer;

    std::string error;
    auto reader = TraceFileReader::open(path, IngestMode::Auto, &error);
    if (!reader) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(1);
    }
    Engine engine(ModelKind::X86);
    Report merged;
    for (size_t i = 0; i < reader->traceCount(); i++) {
        DecodedTrace decoded;
        if (!reader->decode(i, &decoded)) {
            std::fprintf(stderr, "%s: trace #%zu: decode failed\n",
                         path.c_str(), i);
            std::exit(1);
        }
        merged.merge(engine.check(decoded.trace));
    }
    merged.canonicalize();

    phase.seconds = timer.elapsedSec();
    phase.rssGrowthKb = bench::peakRssKb() - rss_before;
    phase.verdict = verdictOf(merged);
    phase.failCount = merged.failCount();
    return phase;
}

/** A file shape: trace population + its measured phases. */
struct Shape
{
    std::string name;
    size_t traceCount = 0;
    size_t totalOps = 0;
    size_t fileBytesV2 = 0;
    std::vector<Phase> phases;
    bool verdictMatch = false;

    double
    speedup() const
    {
        // baseline (last phase) over the 4-decoder pipeline (first).
        return phases.back().seconds / phases.front().seconds;
    }
};

Shape
runShape(const std::string &name, size_t count, size_t rounds,
         size_t workers)
{
    const auto traces = makeTraces(count, rounds, 0xbeef + count);
    Shape shape;
    shape.name = name;
    shape.traceCount = traces.size();
    for (const auto &t : traces)
        shape.totalOps += t.size();

    const std::string base =
        "/tmp/pmtest_bench_ingest_" + std::to_string(getpid()) + "_" +
        name;
    const std::string v2_path = base + ".v2.trace";
    if (!saveTracesToFile(v2_path, traces)) {
        std::fprintf(stderr, "cannot write trace files under /tmp\n");
        std::exit(1);
    }

    // The same trace set split across three v2 part files, for the
    // multi-file ingest phase.
    std::vector<std::string> part_paths;
    {
        const size_t parts = 3;
        size_t at = 0;
        for (size_t p = 0; p < parts; p++) {
            const size_t take =
                (traces.size() - at) / (parts - p);
            std::vector<Trace> part(traces.begin() + at,
                                    traces.begin() + at + take);
            at += take;
            const std::string path =
                base + ".part" + std::to_string(p) + ".trace";
            if (!saveTracesToFile(path, part)) {
                std::fprintf(stderr,
                             "cannot write trace files under /tmp\n");
                std::exit(1);
            }
            part_paths.push_back(path);
        }
    }

    {
        std::string error;
        auto reader = TraceFileReader::open(v2_path, IngestMode::Mmap,
                                            &error);
        if (!reader) {
            std::fprintf(stderr, "open %s: %s\n", v2_path.c_str(),
                         error.c_str());
            std::exit(1);
        }
        shape.fileBytesV2 = reader->sizeBytes();
    }

    shape.phases.push_back(runPipeline(v2_path, 4, workers));
    shape.phases.push_back(runPipeline(v2_path, 2, workers));
    shape.phases.push_back(runPipeline(v2_path, 1, workers));
    shape.phases.push_back(runPipeline(v2_path, 4, workers, 4));
    shape.phases.push_back(runPipeline(v2_path, 4, workers, 4,
                                       IngestOptions::Affinity::Shared));
    shape.phases.push_back(runMultiFile(part_paths, 4, workers));
    shape.phases.push_back(runSerialBaseline(v2_path));

    shape.verdictMatch = true;
    for (const auto &phase : shape.phases) {
        shape.verdictMatch =
            shape.verdictMatch &&
            phase.verdict == shape.phases.back().verdict &&
            phase.failCount == shape.phases.back().failCount;
    }

    std::remove(v2_path.c_str());
    for (const auto &path : part_paths)
        std::remove(path.c_str());
    return shape;
}

void
printShape(const Shape &shape)
{
    std::printf("%s: %zu traces, %zu ops, v2 file %.1f MiB\n",
                shape.name.c_str(), shape.traceCount, shape.totalOps,
                shape.fileBytesV2 / (1024.0 * 1024.0));
    for (const auto &phase : shape.phases) {
        std::printf("  %-18s %8.3f s   rss +%zu KiB   %zu FAIL\n",
                    phase.name.c_str(), phase.seconds,
                    phase.rssGrowthKb, phase.failCount);
    }
    std::printf("  speedup (v2 serial / v2 mmap 4dec): %.2fx, "
                "verdict %s\n",
                shape.speedup(),
                shape.verdictMatch ? "identical" : "MISMATCH");
}

bool
writeJson(const std::string &path, const std::vector<Shape> &shapes,
          bool smoke)
{
    JsonWriter w;
    w.beginObject();
    w.member("bench", "ingest");
    w.member("smoke", smoke);
    w.member("scale", pmtest::bench::scale());
    w.key("shapes").beginArray();
    for (const Shape &shape : shapes) {
        w.beginObject();
        w.member("name", shape.name);
        w.member("traces", shape.traceCount);
        w.member("ops", shape.totalOps);
        w.member("v2_bytes", shape.fileBytesV2);
        w.member("verdict_match", shape.verdictMatch);
        w.member("speedup", shape.speedup(), 3);
        w.key("phases").beginArray();
        for (const Phase &phase : shape.phases) {
            w.beginObject();
            w.member("name", phase.name);
            w.member("seconds", phase.seconds, 6);
            w.member("rss_growth_kb", phase.rssGrowthKb);
            w.member("fail_count", phase.failCount);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return pmtest::bench::writeJsonFile(path, w);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path = "BENCH_ingest.json";
    std::string metrics_path;
    std::string trace_events_path;
    pmtest::util::CliParser cli("bench_ingest");
    cli.addFlag("--smoke", &smoke, "tiny deterministic run for CI");
    cli.addString("--json", &json_path,
                  "result document path (default BENCH_ingest.json)");
    cli.addString("--metrics-json", &metrics_path,
                  "write the pmtest-metrics-v2 snapshot");
    cli.addString("--trace-events", &trace_events_path,
                  "write a Chrome trace-event timeline");
    cli.positionalCount(0, 0);
    const auto cli_status = cli.parse(argc, argv);
    if (cli_status != pmtest::util::CliStatus::Ok)
        return pmtest::util::cliExitCode(cli_status);
    if (!trace_events_path.empty())
        obs::Telemetry::instance().enableSpans();

    pmtest::bench::banner("Ingest",
                          "v2 mmap-parallel pipeline vs serial "
                          "decode, load->verdict");

    const size_t s = pmtest::bench::scale();
    const size_t workers = 4;
    std::vector<Shape> shapes;
    if (smoke) {
        shapes.push_back(
            runShape("table1_small", 400, 32, workers));
        shapes.push_back(runShape("few_large", 8, 4000, workers));
    } else {
        shapes.push_back(
            runShape("table1_small", 4000 * s, 48, workers));
        shapes.push_back(
            runShape("few_large", 16, 40000 * s, workers));
    }

    bool all_match = true;
    for (const auto &shape : shapes) {
        printShape(shape);
        all_match = all_match && shape.verdictMatch;
    }

    if (!writeJson(json_path, shapes, smoke))
        return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
    if (!metrics_path.empty() &&
        !pmtest::bench::writeMetricsSnapshot(
            metrics_path, "bench_ingest",
            [&](JsonWriter &w) { w.member("match", all_match); }))
        return 1;
    if (!trace_events_path.empty()) {
        std::string error;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                trace_events_path, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }
    return all_match ? 0 : 1;
}
