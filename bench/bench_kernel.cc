/**
 * @file
 * Checking-kernel ablation harness: one binary measuring the three
 * rewrite axes end to end and emitting the results as JSON for CI
 * trend tracking.
 *
 *  - storage: chunked IntervalMap vs the flat sorted-vector layout it
 *    replaced, on hot (4 KiB / 64 KiB), sparse never-retouched
 *    (1 MiB / 8 MiB), mixed hot+sparse and round-shaped (8 MiB, each
 *    assign probed right back) shapes — the sparse shapes are the
 *    flat layout's O(n)-memmove cliff, the round shape is the
 *    locality the map's (chunk, item) finger serves.
 *  - batch: assignBatch (sort once, walk chunks once) vs a per-op
 *    assign loop over identical sorted disjoint ranges.
 *  - state: one reused engine (capacity-retaining reset) vs a fresh
 *    engine per trace.
 *  - write runs: the batched write-run kernel vs the same kernel
 *    with batching off (Dispatch::PerOp).
 *  - report CRC: crc32 (the carry-less-multiply fold on x86-64 CPUs
 *    with PCLMULQDQ) vs the portable slicing-by-8 crc32Portable over
 *    an 8 MiB buffer, the size of a report with 64,000 findings.
 *
 * Flags:
 *  --smoke        tiny workload (seconds -> milliseconds); CI uses
 *                 this to validate the harness and capture the JSON.
 *  --json=PATH    where to write the JSON (default BENCH_kernel.json).
 *  --metrics-json=PATH  pmtest-metrics-v2 document of the run:
 *                 telemetry counters + stage latency histograms, no
 *                 gauges, the scale in "run".
 *  --trace-events=PATH  Chrome trace-event / Perfetto timeline of the
 *                 run's engine.check spans.
 *  --metrics-port=N  serve live /metrics and /metrics.json on
 *                 127.0.0.1:N for the duration of the run.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/flat_interval_map.hh"
#include "core/engine.hh"
#include "core/interval_map.hh"
#include "obs/metrics_service.hh"
#include "obs/telemetry.hh"
#include "trace/trace_io.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/clock.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** One measured comparison: candidate vs baseline on the same work. */
struct Section
{
    std::string name;
    std::string baseline;
    std::string candidate;
    double baselineMops = 0;
    double candidateMops = 0;

    double speedup() const { return candidateMops / baselineMops; }
};

using pmtest::bestOfSeconds;

// --- storage: chunked vs flat interval map -------------------------

struct IntervalOp
{
    int kind; // 0 = assign, 1 = erase, 2 = covers, 3 = overlap
    uint64_t addr;
    uint64_t size;
};

std::vector<IntervalOp>
makeIntervalStream(size_t n_ops, uint64_t working_set, uint64_t seed)
{
    Rng rng(seed);
    std::vector<IntervalOp> ops;
    ops.reserve(n_ops);
    for (size_t i = 0; i < n_ops; i++) {
        const uint64_t dice = rng.below(10);
        const uint64_t addr = 64 * rng.below(working_set / 64);
        const uint64_t size = 8 + rng.below(120);
        if (dice < 5) {
            ops.push_back({0, addr, size});
        } else if (dice < 6) {
            ops.push_back({1, addr, size});
        } else if (dice < 8) {
            ops.push_back({2, addr, size});
        } else {
            ops.push_back({3, addr, size});
        }
    }
    return ops;
}

/**
 * The adversarial shape for a flat sorted vector: @p span/@p stride
 * disjoint 64 B ranges (the gaps keep them from coalescing), each
 * assigned exactly once in random order and never retouched. Every
 * insert lands at a random rank, so the flat layout memmoves half
 * the accumulated tail per op — O(n) splice with nothing amortising
 * it — while the chunked layout moves at most one chunk.
 */
std::vector<IntervalOp>
makeSparseStream(uint64_t span, uint64_t stride, uint64_t seed)
{
    Rng rng(seed);
    const size_t count = span / stride;
    std::vector<IntervalOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; i++)
        ops.push_back({0, 0x100000 + stride * i, 64});
    for (size_t i = count; i > 1; i--)
        std::swap(ops[i - 1], ops[rng.below(i)]);
    return ops;
}

/**
 * The engine's persist-round locality: @p rounds times, assign a
 * random 64 B slot of an @p span-byte span, then probe that same slot
 * with covers and forEachOverlap — the write, then the writeback and
 * check that look up the range it just placed. The sparse streams
 * never retouch a range, so only this shape sees the finger.
 */
std::vector<IntervalOp>
makeRoundStream(uint64_t span, size_t rounds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<IntervalOp> ops;
    ops.reserve(3 * rounds);
    for (size_t i = 0; i < rounds; i++) {
        const uint64_t addr = 0x100000 + 64 * rng.below(span / 64);
        ops.push_back({0, addr, 64});
        ops.push_back({2, addr, 64});
        ops.push_back({3, addr, 64});
    }
    return ops;
}

/**
 * Hot/sparse mix: three of four ops churn a hot 4 KiB window with the
 * usual assign/erase/covers/overlap mix; every fourth op plants a
 * unique never-retouched range in a 4 MiB span above it. In the flat
 * layout the hot window sorts *below* the sparse tail, so every hot
 * splice pays a memmove proportional to the sparse population.
 */
std::vector<IntervalOp>
makeMixedStream(size_t n_ops, uint64_t seed)
{
    Rng rng(seed);
    const auto sparse = makeSparseStream(4 << 20, 512, seed ^ 0x9e37);
    std::vector<IntervalOp> ops;
    ops.reserve(n_ops);
    size_t next_sparse = 0;
    for (size_t i = 0; i < n_ops; i++) {
        if (i % 4 == 3 && next_sparse < sparse.size()) {
            ops.push_back(sparse[next_sparse++]);
            continue;
        }
        const uint64_t dice = rng.below(10);
        const uint64_t addr = 64 * rng.below((4 << 10) / 64);
        const uint64_t size = 8 + rng.below(120);
        const int kind = dice < 5 ? 0 : dice < 6 ? 1 : dice < 8 ? 2 : 3;
        ops.push_back({kind, addr, size});
    }
    return ops;
}

template <typename MapT>
uint64_t
runIntervalStream(MapT &map, const std::vector<IntervalOp> &ops)
{
    uint64_t acc = 0;
    map.clear();
    for (const auto &op : ops) {
        const AddrRange range(op.addr, op.size);
        switch (op.kind) {
          case 0:
            map.assign(range, op.addr);
            break;
          case 1:
            map.erase(range);
            break;
          case 2:
            acc += map.covers(range);
            break;
          default:
            map.forEachOverlap(range, [&](const auto &e) {
                acc += e.end - e.start;
            });
        }
    }
    return acc;
}

/** Chunked IntervalMap vs the flat layout on one prebuilt op stream. */
Section
measureStorage(const std::vector<IntervalOp> &ops, int passes,
               const char *tag)
{
    volatile uint64_t sink = 0;

    IntervalMap<uint64_t> chunked;
    const double chunked_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++)
            sink += runIntervalStream(chunked, ops);
    });

    pmtest::bench::FlatIntervalMap<uint64_t> baseline;
    const double baseline_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++)
            sink += runIntervalStream(baseline, ops);
    });

    const double total = static_cast<double>(ops.size()) * passes;
    Section s;
    s.name = std::string("interval_map_storage_") + tag;
    s.baseline = "flat_vector";
    s.candidate = "chunked";
    s.baselineMops = total / baseline_sec * 1e-6;
    s.candidateMops = total / chunked_sec * 1e-6;
    return s;
}

// --- batch: assignBatch vs a per-op assign loop --------------------

Section
measureBatchAssign(size_t batches_n, size_t per_batch, int passes)
{
    // Sorted disjoint 64 B ranges with 64 B gaps, per_batch to a
    // batch. Batches are shuffled so some land inside existing chunks
    // (gap-run inserts) and some past the end (append runs) — both
    // single-walk paths, against per_batch separate binary searches.
    Rng rng(99);
    std::vector<std::vector<AddrRange>> batches(batches_n);
    for (size_t b = 0; b < batches_n; b++) {
        const uint64_t base = b * per_batch * 128;
        auto &batch = batches[b];
        batch.reserve(per_batch);
        for (size_t i = 0; i < per_batch; i++)
            batch.emplace_back(base + 128 * i, 64);
    }
    for (size_t i = batches_n; i > 1; i--)
        std::swap(batches[i - 1], batches[rng.below(i)]);

    volatile uint64_t sink = 0;
    IntervalMap<uint64_t> batched;
    const double batch_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++) {
            batched.clear();
            for (const auto &b : batches)
                batched.assignBatch(b.data(), b.size(), 7);
            sink += batched.size();
        }
    });

    IntervalMap<uint64_t> per_op;
    const double perop_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++) {
            per_op.clear();
            for (const auto &b : batches)
                for (const AddrRange &r : b)
                    per_op.assign(r, 7);
            sink += per_op.size();
        }
    });

    const double total =
        static_cast<double>(batches_n) * per_batch * passes;
    Section s;
    s.name = "interval_batch_assign";
    s.baseline = "per_op_assign";
    s.candidate = "assign_batch";
    s.baselineMops = total / perop_sec * 1e-6;
    s.candidateMops = total / batch_sec * 1e-6;
    return s;
}

// --- state: reused vs fresh engine ---------------------------------

std::vector<Trace>
makeTraces(size_t count, size_t rounds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Trace> traces;
    traces.reserve(count);
    for (size_t t = 0; t < count; t++) {
        Trace trace(t, 0);
        for (size_t i = 0; i < rounds; i++) {
            const uint64_t addr = 64 * rng.below(1024);
            trace.append(PmOp::write(addr, 64));
            trace.append(PmOp::clwb(addr, 64));
            trace.append(PmOp::sfence());
            trace.append(PmOp::isPersist(addr, 64));
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

Section
measureStateReuse(size_t traces_n, size_t rounds)
{
    const auto traces = makeTraces(traces_n, rounds, 7);
    size_t total_ops = 0;
    for (const auto &t : traces)
        total_ops += t.size();
    volatile uint64_t sink = 0;

    Engine reused(ModelKind::X86);
    const double reused_sec = bestOfSeconds(3, [&] {
        for (const auto &t : traces)
            sink += reused.check(t).failCount();
    });

    const double fresh_sec = bestOfSeconds(3, [&] {
        for (const auto &t : traces) {
            Engine fresh(ModelKind::X86);
            sink += fresh.check(t).failCount();
        }
    });

    Section s;
    s.name = "engine_state";
    s.baseline = "fresh_per_trace";
    s.candidate = "reused";
    s.baselineMops = static_cast<double>(total_ops) / fresh_sec * 1e-6;
    s.candidateMops = static_cast<double>(total_ops) / reused_sec * 1e-6;
    return s;
}

// --- write runs: batched vs per-op ---------------------------------

/**
 * Table-1-shaped traces: each round writes 8 distinct lines back to
 * back, then flushes them and fences — the write-run pattern the
 * batched kernel coalesces into one sorted shadow splice.
 */
std::vector<Trace>
makeWriteRunTraces(size_t count, size_t rounds, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Trace> traces;
    traces.reserve(count);
    for (size_t t = 0; t < count; t++) {
        Trace trace(t, 0);
        for (size_t i = 0; i < rounds; i++) {
            const uint64_t base = 64 * 8 * rng.below(512);
            for (size_t w = 0; w < 8; w++)
                trace.append(PmOp::write(base + 64 * w, 64));
            for (size_t w = 0; w < 8; w++)
                trace.append(PmOp::clwb(base + 64 * w, 64));
            trace.append(PmOp::sfence());
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

Section
measureEngineBatch(size_t traces_n, size_t rounds)
{
    const auto traces = makeWriteRunTraces(traces_n, rounds, 21);
    size_t total_ops = 0;
    for (const auto &t : traces)
        total_ops += t.size();
    volatile uint64_t sink = 0;

    Engine batched(ModelKind::X86);
    const double batched_sec = bestOfSeconds(3, [&] {
        for (const auto &t : traces)
            sink += batched.check(t).failCount();
    });

    Engine per_op(ModelKind::X86, Engine::Dispatch::PerOp);
    const double perop_sec = bestOfSeconds(3, [&] {
        for (const auto &t : traces)
            sink += per_op.check(t).failCount();
    });

    Section s;
    s.name = "engine_batched_writes";
    s.baseline = "per_op";
    s.candidate = "batched";
    s.baselineMops =
        static_cast<double>(total_ops) / perop_sec * 1e-6;
    s.candidateMops =
        static_cast<double>(total_ops) / batched_sec * 1e-6;
    return s;
}

// --- report CRC: folded vs slicing-by-8 ----------------------------

/** crc32 vs crc32Portable over @p bytes, @p passes times; an op is a byte. */
Section
measureReportCrc(size_t bytes, int passes)
{
    std::vector<uint8_t> buf(bytes);
    Rng rng(31);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.below(256));
    volatile uint32_t sink = 0;

    const double folded_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++)
            sink = sink + crc32(buf.data(), buf.size());
    });
    const double table_sec = bestOfSeconds(3, [&] {
        for (int p = 0; p < passes; p++)
            sink = sink + crc32Portable(buf.data(), buf.size());
    });

    const double total = static_cast<double>(bytes) * passes;
    Section s;
    s.name = "report_crc32_8m";
    s.baseline = "slicing_by_8";
    s.candidate = "clmul_fold";
    s.baselineMops = total / table_sec * 1e-6;
    s.candidateMops = total / folded_sec * 1e-6;
    return s;
}

// --- reporting -----------------------------------------------------

void
printSection(const Section &s)
{
    std::printf("%-20s %-16s %8.2f Mops/s\n", s.name.c_str(),
                s.baseline.c_str(), s.baselineMops);
    std::printf("%-20s %-16s %8.2f Mops/s   -> %.2fx\n", "",
                s.candidate.c_str(), s.candidateMops, s.speedup());
}

bool
writeJson(const std::string &path, const std::vector<Section> &sections,
          bool smoke)
{
    JsonWriter w;
    w.beginObject();
    w.member("bench", "kernel");
    w.member("smoke", smoke);
    w.member("scale", pmtest::bench::scale());
    w.key("sections").beginArray();
    for (const Section &s : sections) {
        w.beginObject();
        w.member("name", s.name);
        w.member("baseline", s.baseline);
        w.member("candidate", s.candidate);
        w.member("baseline_mops", s.baselineMops, 3);
        w.member("candidate_mops", s.candidateMops, 3);
        w.member("speedup", s.speedup(), 3);
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
    std::string json_path = "BENCH_kernel.json";
    std::string metrics_path;
    std::string trace_events_path;
    size_t metrics_port = static_cast<size_t>(-1);
    pmtest::util::CliParser cli("bench_kernel");
    cli.addFlag("--smoke", &smoke, "tiny deterministic run for CI");
    cli.addString("--json", &json_path,
                  "result document path (default BENCH_kernel.json)");
    cli.addString("--metrics-json", &metrics_path,
                  "write the pmtest-metrics-v2 snapshot");
    cli.addString("--trace-events", &trace_events_path,
                  "write a Chrome trace-event timeline");
    cli.addSize("--metrics-port", &metrics_port,
                "serve /metrics on 127.0.0.1:N (0 = ephemeral)", 0,
                65535);
    cli.positionalCount(0, 0);
    const auto cli_status = cli.parse(argc, argv);
    if (cli_status != pmtest::util::CliStatus::Ok)
        return pmtest::util::cliExitCode(cli_status);
    if (!trace_events_path.empty())
        obs::Telemetry::instance().enableSpans();

    // Live scrape endpoint for the benchmark run (used by the <2%
    // overhead measurement in EXPERIMENTS.md): telemetry counters,
    // stage latencies, and process gauges — no pool/ingest samplers.
    obs::MetricsService metrics_service;
    if (metrics_port != static_cast<size_t>(-1)) {
        obs::ServiceOptions service_options;
        service_options.tool = "bench_kernel";
        service_options.metricsPort =
            static_cast<int32_t>(metrics_port);
        std::string service_error;
        if (!metrics_service.start(std::move(service_options),
                                   &service_error)) {
            std::fprintf(stderr, "%s\n", service_error.c_str());
            return 2;
        }
    }

    pmtest::bench::banner("Kernel ablation",
                          "chunked storage, batched splices, state "
                          "reuse, batched write runs, report CRC");

    const size_t s = pmtest::bench::scale();
    const int sp = static_cast<int>(s); // int passes
    std::vector<Section> sections;
    if (smoke) {
        // Small enough for CI, large enough that each timed rep is
        // milliseconds — the speedup ratios gate regressions
        // (bench/check_kernel_regression.py), so they must be stable.
        sections.push_back(measureStorage(
            makeIntervalStream(2048, 4 << 10, 42), 8, "hot4k"));
        sections.push_back(measureStorage(
            makeIntervalStream(2048, 64 << 10, 42), 8, "64k"));
        // 4,096 inserts: with 2,048 the flat side's speed moved by a
        // third from run to run and the ratio fell below its floor.
        sections.push_back(measureStorage(
            makeSparseStream(1 << 20, 256, 13), 4, "sparse1m"));
        sections.push_back(measureStorage(
            makeSparseStream(8 << 20, 2048, 17), 1, "sparse8m"));
        sections.push_back(measureStorage(
            makeMixedStream(2048, 23), 8, "mixed"));
        sections.push_back(measureStorage(
            makeRoundStream(8 << 20, 4096, 29), 2, "rounds8m"));
        sections.push_back(measureBatchAssign(128, 16, 6));
        sections.push_back(measureStateReuse(64, 32));
        sections.push_back(measureEngineBatch(32, 32));
        sections.push_back(measureReportCrc(8 << 20, 8));
    } else {
        sections.push_back(measureStorage(
            makeIntervalStream(8192, 4 << 10, 42), 50 * sp, "hot4k"));
        sections.push_back(measureStorage(
            makeIntervalStream(8192, 64 << 10, 42), 50 * sp, "64k"));
        sections.push_back(measureStorage(
            makeSparseStream(1 << 20, 128, 13), 2 * sp, "sparse1m"));
        sections.push_back(measureStorage(
            makeSparseStream(8 << 20, 512, 17), 1, "sparse8m"));
        sections.push_back(measureStorage(
            makeMixedStream(8192, 23), 10 * sp, "mixed"));
        sections.push_back(measureStorage(
            makeRoundStream(8 << 20, 16384, 29), sp, "rounds8m"));
        sections.push_back(measureBatchAssign(512, 16, 10 * sp));
        sections.push_back(measureStateReuse(512 * s, 64));
        sections.push_back(measureEngineBatch(256 * s, 64));
        sections.push_back(measureReportCrc(8 << 20, 10 * sp));
    }

    for (const auto &section : sections)
        printSection(section);

    if (!writeJson(json_path, sections, smoke))
        return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
    if (!metrics_path.empty() &&
        !pmtest::bench::writeMetricsSnapshot(metrics_path,
                                             "bench_kernel"))
        return 1;
    if (!trace_events_path.empty()) {
        std::string error;
        if (!obs::Telemetry::instance().writeTraceEventsFile(
                trace_events_path, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }
    metrics_service.stop();
    return 0;
}
