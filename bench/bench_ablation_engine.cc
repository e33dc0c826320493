/**
 * @file
 * Ablation A4 (google-benchmark): raw checking-engine throughput.
 * Measures operations checked per second as a function of trace
 * length, write-range size and checker density — the numbers behind
 * the claim that validation is cheap enough to run at development
 * time (paper §2.2's "fast" requirement). Also measures the
 * worker-pool dispatch overhead per trace.
 *
 * A further axis ablates the checking-kernel rewrite: reusing one
 * engine's trace state across traces versus constructing a fresh
 * engine per trace (the pre-rewrite pool behaviour).
 */

#include <benchmark/benchmark.h>

#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "util/random.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** A well-formed trace: N protocol rounds + a checker per round. */
Trace
makeTrace(size_t rounds, size_t range_size, uint64_t seed)
{
    Rng rng(seed);
    Trace trace(seed, 0);
    for (size_t i = 0; i < rounds; i++) {
        const uint64_t addr = 64 * rng.below(1024);
        trace.append(PmOp::write(addr, range_size));
        trace.append(PmOp::clwb(addr, range_size));
        trace.append(PmOp::sfence());
        trace.append(PmOp::isPersist(addr, range_size));
    }
    return trace;
}

void
BM_EngineThroughput(benchmark::State &state)
{
    const Trace trace =
        makeTrace(static_cast<size_t>(state.range(0)), 64, 42);
    Engine engine(ModelKind::X86);
    for (auto _ : state) {
        const Report report = engine.check(trace);
        benchmark::DoNotOptimize(report.failCount());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_EngineWideRanges(benchmark::State &state)
{
    // Range size does not change the op count — coarse tracking is
    // insensitive to how many bytes each operation covers.
    const Trace trace =
        makeTrace(256, static_cast<size_t>(state.range(0)), 42);
    Engine engine(ModelKind::X86);
    for (auto _ : state) {
        const Report report = engine.check(trace);
        benchmark::DoNotOptimize(report.failCount());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_EngineCheckerDensity(benchmark::State &state)
{
    // Extra isPersist checkers per round (0, 1, 4, 16).
    const size_t extra = static_cast<size_t>(state.range(0));
    Rng rng(7);
    Trace trace(1, 0);
    for (size_t i = 0; i < 256; i++) {
        const uint64_t addr = 64 * rng.below(1024);
        trace.append(PmOp::write(addr, 64));
        trace.append(PmOp::clwb(addr, 64));
        trace.append(PmOp::sfence());
        for (size_t c = 0; c < extra; c++)
            trace.append(PmOp::isPersist(addr, 64));
    }
    Engine engine(ModelKind::X86);
    for (auto _ : state) {
        const Report report = engine.check(trace);
        benchmark::DoNotOptimize(report.failCount());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_PoolDispatch(benchmark::State &state)
{
    // Per-trace cost of the decoupled path: queue, wake, check, ack.
    const Trace trace = makeTrace(4, 64, 42);
    EnginePool pool(ModelKind::X86,
                    static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        pool.submit(trace);
    }
    pool.drain();
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_EngineStateReused(benchmark::State &state)
{
    // One engine across all traces: shadow-memory storage, exclusion
    // lists and TX bookkeeping keep their capacity between checks.
    const Trace trace =
        makeTrace(static_cast<size_t>(state.range(0)), 64, 42);
    Engine engine(ModelKind::X86);
    for (auto _ : state) {
        const Report report = engine.check(trace);
        benchmark::DoNotOptimize(report.failCount());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_EngineStateFresh(benchmark::State &state)
{
    // A new engine per trace: every check starts from cold storage —
    // the allocation profile the pool had before state reuse.
    const Trace trace =
        makeTrace(static_cast<size_t>(state.range(0)), 64, 42);
    for (auto _ : state) {
        Engine engine(ModelKind::X86);
        const Report report = engine.check(trace);
        benchmark::DoNotOptimize(report.failCount());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

} // namespace

BENCHMARK(BM_EngineThroughput)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_EngineWideRanges)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_EngineCheckerDensity)->Arg(0)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_PoolDispatch)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_EngineStateReused)->Arg(4)->Arg(64)->Arg(1024);
BENCHMARK(BM_EngineStateFresh)->Arg(4)->Arg(64)->Arg(1024);

BENCHMARK_MAIN();
