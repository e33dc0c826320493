/**
 * @file
 * Ablation A2: decoupled checking. The paper pipelines program
 * execution and checking by running the engine on worker threads
 * (§3.2, Fig. 8). This harness runs the same microbenchmark with
 * inline checking (0 workers — the coupled design), one worker, and
 * two workers, quantifying what decoupling buys.
 *
 * Two dispatch experiments follow:
 *  - skewed trace sizes: one 100k-op trace among thousands of 100-op
 *    traces, dispatched round-robin to 4 workers. A quarter of the
 *    small traces queue behind the giant; idle workers steal them, so
 *    every small result is ready long before the giant's.
 *  - bounded backpressure: a fast producer against a single worker
 *    with a small queue capacity — the queue depth stays at the
 *    bound and the overflow shows up as producer stall time instead
 *    of unbounded memory growth.
 */

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/bench_util.hh"
#include "core/engine_pool.hh"
#include "util/clock.hh"
#include "util/cpu.hh"
#include "workloads/microbench.hh"

namespace
{

using namespace pmtest;

/**
 * A clean trace of @p ops write/clwb/sfence triplets cycling over
 * @p lines distinct cache lines.
 */
Trace
makeTrace(uint64_t id, size_t ops, size_t lines)
{
    Trace t(id, 0);
    for (size_t i = 0; i < ops / 3 + 1; i++) {
        const uint64_t addr = 0x1000 + 64 * (i % lines);
        t.append(PmOp::write(addr, 8));
        t.append(PmOp::clwb(addr, 8));
        t.append(PmOp::sfence());
    }
    return t;
}

struct SkewResult
{
    double smallsSeconds = 0; ///< until every small trace is checked
    double totalSeconds = 0;  ///< until the giant is checked too
    core::PoolStats stats;
};

/** One @p giant_ops trace among @p smalls 100-op traces, 4 workers. */
SkewResult
runSkewed(size_t giant_ops, size_t smalls)
{
    // Prebuild the traces: the timer must measure dispatch +
    // checking, not trace construction on the producer. The giant
    // writes distinct lines (a large PM footprint, so its check time
    // actually dominates a small trace's); smalls reuse a hot 1 KiB
    // window.
    std::vector<Trace> traces;
    traces.reserve(smalls + 1);
    traces.push_back(makeTrace(0, giant_ops, giant_ops / 3 + 1));
    for (size_t i = 0; i < smalls; i++)
        traces.push_back(makeTrace(1 + i, 100, 16));

    core::PoolOptions options;
    options.workers = 4;
    core::EnginePool pool(options);

    // The giant goes first (round-robin lands it on worker 0); the
    // smalls follow in dispatch batches so the producer keeps every
    // queue backlogged — the measurement is then checking-bound and
    // the small-trace latency shows who drains the giant's queue.
    constexpr size_t kDispatchBatch = 64;
    Timer timer;
    pool.submit(std::move(traces[0]));
    std::vector<Trace> batch;
    batch.reserve(kDispatchBatch);
    for (size_t i = 1; i < traces.size(); i++) {
        batch.push_back(std::move(traces[i]));
        if (batch.size() == kDispatchBatch) {
            pool.submitBatch(std::move(batch));
            batch.clear();
        }
    }
    pool.submitBatch(std::move(batch));

    SkewResult result;
    // Head-of-line metric: when is every *small* trace's result
    // ready? Round-robin parks a quarter of them behind the giant
    // (checked >= smalls leaves at most one trace outstanding, so the
    // error is one small trace).
    while (pool.tracesChecked() < smalls)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    result.smallsSeconds = timer.elapsedSec();
    pool.drain();
    result.totalSeconds = timer.elapsedSec();
    result.stats = pool.stats();
    return result;
}

/** Fast producer, one worker, bounded queue: measure backpressure. */
void
runBackpressure(size_t capacity, size_t traces)
{
    core::PoolOptions options;
    options.workers = 1;
    options.queueCapacity = capacity;
    core::EnginePool pool(options);

    size_t max_depth = 0;
    Timer timer;
    for (size_t i = 0; i < traces; i++) {
        pool.submit(makeTrace(i, 300, 64));
        max_depth = std::max(max_depth, pool.stats().queuedTraces());
    }
    pool.drain();
    const double sec = timer.elapsedSec();
    const core::PoolStats stats = pool.stats();

    std::printf("capacity %zu: %zu traces in %s s, max queued %zu, "
                "producer stalled %.1f ms\n",
                capacity, traces, fmtDouble(sec, 3).c_str(), max_depth,
                static_cast<double>(stats.producerStallNanos) * 1e-6);
}

} // namespace

int
main()
{
    using namespace pmtest;
    using namespace pmtest::workloads;

    bench::banner("Ablation A2",
                  "decoupled (worker-thread) vs inline checking");

    const size_t insertions = 600 * bench::scale();

    TextTable table;
    table.header({"structure", "native(s)", "inline", "1 worker",
                  "2 workers"});

    for (pmds::MapKind kind :
         {pmds::MapKind::Ctree, pmds::MapKind::HashmapTx,
          pmds::MapKind::HashmapAtomic}) {
        MicrobenchConfig config;
        config.kind = kind;
        config.insertions = insertions;
        config.valueSize = 256;

        const auto native = runMicrobench(config, Tool::Native);
        const auto inline_run =
            runMicrobench(config, Tool::PMTestInline);

        config.workers = 1;
        const auto one = runMicrobench(config, Tool::PMTest);
        config.workers = 2;
        const auto two = runMicrobench(config, Tool::PMTest);

        table.row({pmds::mapKindName(kind),
                   fmtDouble(native.seconds, 4),
                   bench::fmtSlowdown(inline_run.seconds /
                                      native.seconds),
                   bench::fmtSlowdown(one.seconds / native.seconds),
                   bench::fmtSlowdown(two.seconds / native.seconds)});
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("Expected shape: inline > 1 worker >= 2 workers — "
                "checking off the critical path is where PMTest's "
                "runtime advantage comes from.\n\n");

    bench::banner("Dispatch", "skewed trace sizes, 4 workers");
    // One 100k-op trace among many 100-op traces. Both sides scale
    // together so the skew ratio survives PMTEST_BENCH_SCALE.
    const size_t giant_ops = 100000 * bench::scale();
    const size_t smalls = 1000 * bench::scale();
    // Best-of-3 (on the head-of-line metric) to de-noise.
    SkewResult stealing = runSkewed(giant_ops, smalls);
    for (int rep = 1; rep < 3; rep++) {
        SkewResult s = runSkewed(giant_ops, smalls);
        if (s.smallsSeconds < stealing.smallsSeconds)
            stealing = s;
    }
    std::printf("smalls done %s s, all done %s s, %llu steals\n",
                fmtDouble(stealing.smallsSeconds, 3).c_str(),
                fmtDouble(stealing.totalSeconds, 3).c_str(),
                static_cast<unsigned long long>(stealing.stats.steals));
    // 4 workers + 1 producer want 5 cores; below that, go through
    // the shared detection helper (PMTEST_WORKERS overrides it, so a
    // CI pin or a big-machine run can force either note path).
    const size_t cores = util::configuredWorkers();
    if (cores < 5) {
        std::printf("note: %zu effective core(s) — total wall time is "
                    "work-conserving here; on a multicore host the "
                    "speedup shows in 'all done' too.\n",
                    cores);
    }
    std::printf("%s\n", stealing.stats.str().c_str());
    std::printf("Expected shape: smalls done well before all done — "
                "idle workers steal the small traces round-robined "
                "behind the 100k-op trace while the giant is still "
                "being checked.\n\n");

    bench::banner("Dispatch", "bounded queue backpressure, 1 worker");
    runBackpressure(/*capacity=*/64, /*traces=*/2000 * bench::scale());
    std::printf("Expected shape: max queued stays at the capacity "
                "bound; the overflow is absorbed as producer stall "
                "time, not memory.\n");
    return 0;
}
