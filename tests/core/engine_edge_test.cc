/**
 * @file
 * Edge-case behaviour of the checking engine: empty and degenerate
 * traces, partial exclusions, zero-size checkers, checker self-
 * ordering, and transaction-checker corner cases.
 */

#include <gtest/gtest.h>

#include "core/engine.hh"

namespace pmtest::core
{
namespace
{

Trace
makeTrace(std::vector<PmOp> ops)
{
    Trace t(1, 0);
    t.append(ops);
    return t;
}

PmOp
op(OpType type, uint64_t addr = 0, uint64_t size = 0)
{
    return PmOp{type, addr, size, 0, 0, {}};
}

TEST(EngineEdgeTest, EmptyTraceIsClean)
{
    Engine engine(ModelKind::X86);
    EXPECT_TRUE(engine.check(Trace()).clean());
}

TEST(EngineEdgeTest, FenceOnlyTraceIsClean)
{
    Engine engine(ModelKind::X86);
    EXPECT_TRUE(engine
                    .check(makeTrace({PmOp::sfence(), PmOp::sfence(),
                                      PmOp::sfence()}))
                    .clean());
}

TEST(EngineEdgeTest, ZeroSizeCheckerPassesVacuously)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 0),
        PmOp::isOrderedBefore(0x10, 0, 0x50, 0),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineEdgeTest, SelfOrderingFails)
{
    // A range cannot be ordered before itself unless unwritten.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x10, 64),
    }));
    EXPECT_EQ(report.failCount(), 1u);
}

TEST(EngineEdgeTest, PartialExclusionStillChecksRest)
{
    // Excluding part of a range does not silence ops on the rest.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::Exclude, 0x10, 16),
        PmOp::write(0x10, 64), // straddles the exclusion boundary
        PmOp::isPersist(0x10, 64),
    }));
    EXPECT_EQ(report.failCount(), 1u)
        << "the non-excluded part is still unflushed";
}

TEST(EngineEdgeTest, ExclusionAppliesOnlyForward)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64), // tracked: exclusion comes later
        op(OpType::Exclude, 0x10, 64),
        PmOp::isPersist(0x10, 64), // skipped by the exclusion
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineEdgeTest, OverlappingWritesKeepLatestInterval)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::write(0x30, 64), // overlaps the tail of the first
        PmOp::isPersist(0x10, 32),  // untouched prefix: persisted
        PmOp::isPersist(0x30, 64),  // rewritten: open
    }));
    EXPECT_EQ(report.failCount(), 1u) << report.str();
}

TEST(EngineEdgeTest, CheckerBetweenClwbAndFence)
{
    // clwb alone gives no durability guarantee (paper §2.1).
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::isPersist(0x10, 64), // FAIL: fence still outstanding
        PmOp::sfence(),
        PmOp::isPersist(0x10, 64), // pass
    }));
    EXPECT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].opIndex, 2u);
}

TEST(EngineEdgeTest, BackToBackTransactions)
{
    Engine engine(ModelKind::X86);
    std::vector<PmOp> ops;
    for (int i = 0; i < 5; i++) {
        const uint64_t base = 0x100 * (i + 1);
        ops.push_back(op(OpType::TxCheckStart));
        ops.push_back(op(OpType::TxBegin));
        ops.push_back(op(OpType::TxAdd, base, 64));
        ops.push_back(PmOp::write(base, 64));
        ops.push_back(PmOp::clwb(base, 64));
        ops.push_back(PmOp::sfence());
        ops.push_back(op(OpType::TxEnd));
        ops.push_back(op(OpType::TxCheckEnd));
    }
    EXPECT_TRUE(engine.check(makeTrace(ops)).clean());
}

TEST(EngineEdgeTest, TxCheckRegionWithoutTransaction)
{
    // The checker region can wrap plain low-level code: its auto
    // isPersist still applies to writes inside the region.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        PmOp::write(0x10, 64), // never flushed
        op(OpType::TxCheckEnd),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::IncompleteTx);
}

TEST(EngineEdgeTest, TxCheckRegionOpenAtTraceEnd)
{
    // Without its TX_CHECKER_END the region's writes are never
    // checked, so the open region itself must fail.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        PmOp::write(0x10, 64), // never flushed
    }));
    ASSERT_EQ(report.failCount(), 1u) << report.str();
    const Finding &f = report.findings()[0];
    EXPECT_EQ(f.kind, FindingKind::Malformed);
    EXPECT_EQ(f.cause, Cause::TxCheckerOpenAtTraceEnd);
    EXPECT_EQ(f.opIndex, 2u);
    EXPECT_EQ(findingMessage(f), "trace ends inside a TX_CHECKER region");
}

TEST(EngineEdgeTest, OpenTxAndOpenTxCheckRegionBothReported)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
    }));
    ASSERT_EQ(report.failCount(), 2u) << report.str();
    EXPECT_EQ(report.findings()[0].cause, Cause::TxOpenAtTraceEnd);
    EXPECT_EQ(report.findings()[1].cause, Cause::TxCheckerOpenAtTraceEnd);
}

TEST(EngineEdgeTest, SecondTxCheckRegionStartsFresh)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        op(OpType::TxCheckEnd),
        op(OpType::TxCheckStart), // the first region's writes are
        op(OpType::TxCheckEnd),   // not re-checked here
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineEdgeTest, HopsTransactionChecking)
{
    // The TX checkers are model-independent: a HOPS transaction that
    // ends with a dfence passes; one that ends with only an ofence
    // does not.
    Engine engine(ModelKind::Hops);
    const Report good = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::dfence(),
        op(OpType::TxEnd),
        op(OpType::TxCheckEnd),
    }));
    EXPECT_TRUE(good.clean()) << good.str();

    const Report bad = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::ofence(), // orders but does not persist
        op(OpType::TxEnd),
        op(OpType::TxCheckEnd),
    }));
    ASSERT_EQ(bad.failCount(), 1u);
    EXPECT_EQ(bad.findings()[0].kind, FindingKind::IncompleteTx);
}

TEST(EngineEdgeTest, ManyEpochsDoNotOverflow)
{
    Engine engine(ModelKind::X86);
    std::vector<PmOp> ops;
    for (int i = 0; i < 10000; i++)
        ops.push_back(PmOp::sfence());
    ops.push_back(PmOp::write(0x10, 8));
    ops.push_back(PmOp::clwb(0x10, 8));
    ops.push_back(PmOp::sfence());
    ops.push_back(PmOp::isPersist(0x10, 8));
    EXPECT_TRUE(engine.check(makeTrace(ops)).clean());
}

TEST(EngineEdgeTest, InterleavedIndependentObjects)
{
    // Two objects with interleaved protocols; only the broken one
    // fails its checker.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x100, 64),
        PmOp::write(0x200, 64),
        PmOp::clwb(0x100, 64),
        PmOp::sfence(),
        PmOp::isPersist(0x100, 64), // pass
        PmOp::isPersist(0x200, 64), // FAIL: no writeback
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].opIndex, 5u);
}

} // namespace
} // namespace pmtest::core
