/**
 * @file
 * Steady-state checking does not allocate. This binary replaces the
 * global operator new with a counting one, which is why it is an
 * executable of its own: the counter must reach no other test.
 *
 * An engine checks one finding-free trace to warm its reused state
 * up, then traces of N and 4N ops over the same working set; the
 * allocations of the longer check may not exceed those of the
 * shorter one. A per-trace constant (the report, telemetry) is
 * allowed, a per-op allocation is not. Nothing is exempt: the
 * transaction traces log every line with two TX_ADDs, and the TX log
 * recycles its storage at each outermost TX_END.
 *
 * Findings are fixed-size evidence, so emitting one allocates
 * nothing either: bug-dense traces of N and 4N findings may differ
 * only by the findings vector's own geometric growth.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/engine.hh"

namespace
{

std::atomic<size_t> g_allocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (size + align - 1) /
                                                  align * align)
                  : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace pmtest::core
{
namespace
{

constexpr uint64_t kLines = 64;

/**
 * A finding-free trace of @p rounds rounds over kLines cache lines.
 * Each round writes a line in two halves, writes it back, fences and
 * checks it, and checks it against the previous round's line. Every
 * fourth round writes only part of the line, so its writeback also
 * carves a flush-only gap.
 */
Trace
strictTrace(ModelKind kind, size_t rounds)
{
    const OpType flush =
        kind == ModelKind::Arm ? OpType::DcCvap : OpType::Clwb;
    const OpType fence =
        kind == ModelKind::Arm ? OpType::Dsb : OpType::Sfence;
    Trace trace(1, 0);
    for (size_t r = 0; r < rounds; r++) {
        const uint64_t line = 64 * (r % kLines);
        const uint64_t prev = 64 * ((r + kLines - 1) % kLines);
        const uint64_t size = r % 4 == 3 ? 48 : 64;
        trace.append(PmOp::write(line, 32));
        trace.append(PmOp::write(line + 32, size - 32));
        trace.append(PmOp{flush, line, 64, 0, 0, {}});
        trace.append(PmOp{fence, 0, 0, 0, 0, {}});
        trace.append(PmOp::isPersist(line, size));
        if (r > 0)
            trace.append(PmOp::isOrderedBefore(prev, 32, line, 32));
    }
    return trace;
}

/** The HOPS counterpart: writes, ofence/dfence, the same checkers. */
Trace
hopsTrace(size_t rounds)
{
    Trace trace(1, 0);
    for (size_t r = 0; r < rounds; r++) {
        const uint64_t line = 64 * (r % kLines);
        const uint64_t prev = 64 * ((r + kLines - 1) % kLines);
        trace.append(PmOp::write(line, 32));
        trace.append(PmOp::write(line + 32, 32));
        trace.append(PmOp{OpType::Ofence, 0, 0, 0, 0, {}});
        trace.append(PmOp{OpType::Dfence, 0, 0, 0, 0, {}});
        trace.append(PmOp::isPersist(line, 64));
        if (r > 0)
            trace.append(PmOp::isOrderedBefore(prev, 32, line, 32));
    }
    return trace;
}

Trace
makeTrace(ModelKind kind, size_t rounds)
{
    return kind == ModelKind::Hops ? hopsTrace(rounds)
                                   : strictTrace(kind, rounds);
}

/**
 * A finding-free transaction per round: TX_BEGIN, two overlapping
 * TX_ADDs that only jointly cover the line, the write, its
 * writeback and fence (a dfence on HOPS), TX_END and isPersist.
 */
Trace
txTrace(ModelKind kind, size_t rounds)
{
    const bool hops = kind == ModelKind::Hops;
    const OpType flush =
        kind == ModelKind::Arm ? OpType::DcCvap : OpType::Clwb;
    const OpType fence = kind == ModelKind::Arm   ? OpType::Dsb
                         : kind == ModelKind::Hops ? OpType::Dfence
                                                   : OpType::Sfence;
    Trace trace(1, 0);
    for (size_t r = 0; r < rounds; r++) {
        const uint64_t line = 64 * (r % kLines);
        trace.append(PmOp{OpType::TxBegin, 0, 0, 0, 0, {}});
        trace.append(PmOp{OpType::TxAdd, line, 40, 0, 0, {}});
        trace.append(PmOp{OpType::TxAdd, line + 32, 32, 0, 0, {}});
        trace.append(PmOp::write(line, 64));
        if (!hops)
            trace.append(PmOp{flush, line, 64, 0, 0, {}});
        trace.append(PmOp{fence, 0, 0, 0, 0, {}});
        trace.append(PmOp{OpType::TxEnd, 0, 0, 0, 0, {}});
        trace.append(PmOp::isPersist(line, 64));
    }
    return trace;
}

/** Allocations made by one check of @p trace. */
size_t
allocsOfCheck(Engine &engine, const Trace &trace)
{
    const size_t before = g_allocs.load(std::memory_order_relaxed);
    {
        const Report report = engine.check(trace);
        EXPECT_TRUE(report.clean());
    }
    return g_allocs.load(std::memory_order_relaxed) - before;
}

template <typename MakeTrace>
void
expectNoPerOpAllocation(ModelKind kind, MakeTrace make_trace)
{
    constexpr size_t kRounds = 2000;
    const Trace warm = make_trace(kind, kRounds);
    const Trace small = make_trace(kind, kRounds);
    const Trace large = make_trace(kind, 4 * kRounds);
    Engine engine(kind);
    allocsOfCheck(engine, warm);
    const size_t n = allocsOfCheck(engine, small);
    const size_t n4 = allocsOfCheck(engine, large);
    EXPECT_LE(n4, n) << "checking " << large.size() << " ops allocated "
                     << n4 << " times, " << small.size() << " ops "
                     << n << " times";
}

TEST(EngineAllocTest, X86SteadyStateDoesNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::X86, makeTrace);
}

TEST(EngineAllocTest, X86TransactionsDoNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::X86, txTrace);
}

TEST(EngineAllocTest, ArmSteadyStateDoesNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::Arm, makeTrace);
}

TEST(EngineAllocTest, ArmTransactionsDoNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::Arm, txTrace);
}

TEST(EngineAllocTest, HopsSteadyStateDoesNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::Hops, makeTrace);
}

TEST(EngineAllocTest, HopsTransactionsDoNotAllocatePerOp)
{
    expectNoPerOpAllocation(ModelKind::Hops, txTrace);
}

/**
 * A bug-dense trace: every round writes lines A and B and then asks
 * for A before B and for A durable, both failing (and, on the
 * writeback models, writes A back twice: a redundant-flush WARN),
 * then makes both durable so the shadow stays small.
 */
Trace
buggyTrace(ModelKind kind, size_t rounds)
{
    const bool hops = kind == ModelKind::Hops;
    const OpType flush =
        kind == ModelKind::Arm ? OpType::DcCvap : OpType::Clwb;
    const OpType fence = kind == ModelKind::Arm   ? OpType::Dsb
                         : kind == ModelKind::Hops ? OpType::Dfence
                                                   : OpType::Sfence;
    Trace trace(1, 0);
    for (size_t r = 0; r < rounds; r++) {
        const uint64_t a = 128 * (r % kLines);
        const uint64_t b = a + 64;
        trace.append(PmOp::write(a, 64));
        trace.append(PmOp::write(b, 64));
        trace.append(PmOp::isOrderedBefore(a, 64, b, 64));
        trace.append(PmOp::isPersist(a, 64));
        if (!hops) {
            trace.append(PmOp{flush, a, 64, 0, 0, {}});
            trace.append(PmOp{flush, a, 64, 0, 0, {}});
            trace.append(PmOp{flush, b, 64, 0, 0, {}});
        }
        trace.append(PmOp{fence, 0, 0, 0, 0, {}});
    }
    return trace;
}

/** Reallocations of a vector growing to @p n findings by push_back. */
size_t
growthSteps(size_t n)
{
    std::vector<Finding> v;
    size_t steps = 0, capacity = 0;
    for (size_t i = 0; i < n; i++) {
        v.push_back(Finding{});
        if (v.capacity() != capacity) {
            capacity = v.capacity();
            steps++;
        }
    }
    return steps;
}

void
expectNoPerFindingAllocation(ModelKind kind)
{
    constexpr size_t kRounds = 2000;
    const Trace warm = buggyTrace(kind, kRounds);
    const Trace small = buggyTrace(kind, kRounds);
    const Trace large = buggyTrace(kind, 4 * kRounds);
    Engine engine(kind);
    const size_t per_round = engine.check(warm).findings().size() / kRounds;
    ASSERT_GE(per_round, 2u);
    const size_t n = per_round * kRounds;
    const size_t growth = growthSteps(4 * n) - growthSteps(n);

    const auto allocs = [&](const Trace &trace, size_t want) {
        const size_t before = g_allocs.load(std::memory_order_relaxed);
        {
            const Report report = engine.check(trace);
            EXPECT_EQ(report.findings().size(), want);
        }
        return g_allocs.load(std::memory_order_relaxed) - before;
    };
    const size_t a_n = allocs(small, n);
    const size_t a_4n = allocs(large, 4 * n);
    EXPECT_LE(a_4n, a_n + growth)
        << n << " findings allocated " << a_n << " times, " << 4 * n
        << " findings " << a_4n << " times (vector growth: " << growth
        << ")";
}

TEST(EngineAllocTest, X86FindingsDoNotAllocate)
{
    expectNoPerFindingAllocation(ModelKind::X86);
}

TEST(EngineAllocTest, ArmFindingsDoNotAllocate)
{
    expectNoPerFindingAllocation(ModelKind::Arm);
}

TEST(EngineAllocTest, HopsFindingsDoNotAllocate)
{
    expectNoPerFindingAllocation(ModelKind::Hops);
}

TEST(EngineAllocTest, CounterSeesAllocations)
{
    // Guards the harness: a replaced operator new that is never
    // called would pass every test above vacuously.
    const size_t before = g_allocs.load();
    void *p = ::operator new(64);
    ::operator delete(p);
    EXPECT_EQ(g_allocs.load() - before, 1u);
}

} // namespace
} // namespace pmtest::core
