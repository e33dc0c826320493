/**
 * @file
 * Ablation A1 (google-benchmark): the shadow-memory representation.
 * The paper stores persistency status in an interval tree keyed by
 * address ranges (O(log n) updates at operation granularity); the
 * natural alternative — per-byte shadow state, as binary
 * instrumentation tools keep — pays for every byte of every store.
 * This benchmark applies the same synthetic PM-operation stream to
 * both and reports ns/op as the range size grows.
 *
 * A second axis measures the interval map's own backing store
 * (core::IntervalMap) on an interval-heavy stream of assigns, erases,
 * coverage queries and overlap scans; bench_kernel compares it with
 * the retired flat layout.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "core/interval_map.hh"
#include "core/shadow_memory.hh"
#include "util/random.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::core;

/** Synthetic op stream: write/clwb/fence over a working set. */
struct OpStream
{
    struct Op
    {
        int kind; // 0 = write, 1 = clwb, 2 = fence
        uint64_t addr;
        uint64_t size;
    };

    std::vector<Op> ops;

    OpStream(size_t n_ops, uint64_t range_size, uint64_t seed)
    {
        Rng rng(seed);
        for (size_t i = 0; i < n_ops; i++) {
            const uint64_t dice = rng.below(10);
            const uint64_t addr = rng.below(1 << 20);
            if (dice < 5) {
                ops.push_back({0, addr, range_size});
            } else if (dice < 9) {
                ops.push_back({1, addr, range_size});
            } else {
                ops.push_back({2, 0, 0});
            }
        }
    }
};

void
BM_IntervalShadow(benchmark::State &state)
{
    const OpStream stream(4096, state.range(0), 42);
    for (auto _ : state) {
        // Configured as an engine running the x86 model: no
        // written-since-dfence bookkeeping, and the writeback's WARN
        // scan comes back from the same walk.
        ShadowMemory shadow;
        shadow.setTrackOpenWrites(false);
        size_t warns = 0;
        for (const auto &op : stream.ops) {
            switch (op.kind) {
              case 0:
                shadow.recordWrite(AddrRange(op.addr, op.size));
                break;
              case 1:
                warns +=
                    shadow.recordClwb(AddrRange(op.addr, op.size)).any();
                break;
              default:
                shadow.bumpTimestamp();
                shadow.completePendingFlushes();
            }
        }
        benchmark::DoNotOptimize(shadow.entryCount());
        benchmark::DoNotOptimize(warns);
    }
    state.SetItemsProcessed(state.iterations() * stream.ops.size());
}

/** Per-byte baseline: the granularity binary instrumentation pays. */
void
BM_ByteShadow(benchmark::State &state)
{
    const OpStream stream(4096, state.range(0), 42);
    for (auto _ : state) {
        // byte -> (epoch, flushed?)
        std::unordered_map<uint64_t, std::pair<uint64_t, bool>> shadow;
        uint64_t epoch = 0;
        for (const auto &op : stream.ops) {
            switch (op.kind) {
              case 0:
                for (uint64_t a = op.addr; a < op.addr + op.size; a++)
                    shadow[a] = {epoch, false};
                break;
              case 1:
                for (uint64_t a = op.addr; a < op.addr + op.size;
                     a++) {
                    auto it = shadow.find(a);
                    if (it != shadow.end())
                        it->second.second = true;
                }
                break;
              default:
                epoch++;
            }
        }
        benchmark::DoNotOptimize(shadow.size());
    }
    state.SetItemsProcessed(state.iterations() * stream.ops.size());
}

/**
 * Interval-heavy stream exercising the map operations the engine's
 * hot path issues: mostly assigns (recordWrite), some erases, and a
 * covers + overlap-scan probe per mutation (isPersist checking).
 */
struct IntervalStream
{
    struct Op
    {
        int kind; // 0 = assign, 1 = erase, 2 = covers, 3 = overlap
        uint64_t addr;
        uint64_t size;
    };

    std::vector<Op> ops;

    IntervalStream(size_t n_ops, uint64_t working_set, uint64_t seed)
    {
        Rng rng(seed);
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
    }
};

/** Drive any interval-map type through the stream; map is reused. */
template <typename MapT>
uint64_t
runIntervalStream(MapT &map, const IntervalStream &stream)
{
    uint64_t acc = 0;
    map.clear();
    for (const auto &op : stream.ops) {
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

/** Flat sorted-vector interval map (current shadow-memory backing). */
void
BM_FlatIntervalMap(benchmark::State &state)
{
    const IntervalStream stream(
        8192, static_cast<uint64_t>(state.range(0)), 42);
    IntervalMap<uint64_t> map;
    for (auto _ : state)
        benchmark::DoNotOptimize(runIntervalStream(map, stream));
    state.SetItemsProcessed(state.iterations() * stream.ops.size());
}

} // namespace

BENCHMARK(BM_IntervalShadow)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ByteShadow)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// Working-set sizes in bytes: small sets stress carve/split density,
// large sets stress the search.
BENCHMARK(BM_FlatIntervalMap)
    ->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

BENCHMARK_MAIN();
