#include "core/engine.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.hh"

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

TEST(EngineTest, PaperFig7EndToEnd)
{
    // The worked example of §4.4: line 5's isPersist FAILs, line 6's
    // isOrderedBefore passes.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::write(0x50, 64),
        PmOp::isPersist(0x50, 64),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
    }));

    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::NotPersisted);
    EXPECT_EQ(report.findings()[0].opIndex, 4u);
}

TEST(EngineTest, CleanTracePasses)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::write(0x50, 64),
        PmOp::clwb(0x50, 64),
        PmOp::sfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
        PmOp::isPersist(0x10, 64),
        PmOp::isPersist(0x50, 64),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, Fig1aMissingBarrierDetected)
{
    // The intro's buggy ArrayUpdate: backup.valid set in the same
    // epoch as backup.val, so "val before valid" is not guaranteed.
    constexpr uint64_t kVal = 0x100, kValid = 0x140;
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(kVal, 8),   // backup.val = ...
        PmOp::write(kValid, 1), // backup.valid = true (no barrier!)
        PmOp::clwb(kVal, 8),
        PmOp::clwb(kValid, 1),
        PmOp::sfence(),
        PmOp::isOrderedBefore(kVal, 8, kValid, 1),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::NotOrdered);
}

TEST(EngineTest, MissingLogInsideTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64), // backed up: fine
        PmOp::write(0x80, 64), // NOT backed up: missing-log bug
        PmOp::clwb(0x10, 64),
        PmOp::clwb(0x80, 64),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::MissingLog);
    EXPECT_EQ(report.findings()[0].opIndex, 3u);
}

TEST(EngineTest, WritesOutsideTransactionNeedNoLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
    }));
    EXPECT_TRUE(report.clean());
}

TEST(EngineTest, LogTreeClearedAtOutermostCommit)
{
    // A TX_ADD from transaction 1 must not cover transaction 2.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 8),
        PmOp::clwb(0x10, 8),
        PmOp::sfence(),
        op(OpType::TxEnd),
        op(OpType::TxBegin),
        PmOp::write(0x10, 8), // no TX_ADD in this transaction
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::MissingLog);
}

TEST(EngineTest, NestedTransactionKeepsLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        op(OpType::TxBegin), // nested
        PmOp::write(0x10, 8), // covered by the outer TX_ADD
        op(OpType::TxEnd),
        PmOp::write(0x18, 8), // still covered
        PmOp::clwb(0x10, 16),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    EXPECT_EQ(report.failCount(), 0u) << report.str();
}

TEST(EngineTest, DuplicateLogWarns)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        op(OpType::TxAdd, 0x10, 64), // duplicate
        PmOp::write(0x10, 8),
        PmOp::clwb(0x10, 8),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    EXPECT_EQ(report.warnCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::DuplicateLog);
}

TEST(EngineTest, TxAddUnionCoversWrite)
{
    // Neither TX_ADD covers the write alone; their union does.
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 0x10), // [0x10,0x20)
        op(OpType::TxAdd, 0x18, 0x18), // [0x18,0x30)
        PmOp::write(0x10, 0x20),       // [0x10,0x30)
        PmOp::clwb(0x10, 0x20),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, OneByteGapInLogIsMissingLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 0x10), // [0x10,0x20)
        op(OpType::TxAdd, 0x21, 0x0f), // [0x21,0x30): 0x20 unlogged
        PmOp::write(0x10, 0x20),
        PmOp::clwb(0x10, 0x20),
        PmOp::sfence(),
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.findings().size(), 1u) << report.str();
    EXPECT_EQ(report.findings()[0].kind, FindingKind::MissingLog);
    EXPECT_EQ(report.findings()[0].opIndex, 3u);
}

TEST(EngineTest, TxAddCoveredByUnionIsDuplicateLog)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 0x10), // [0x10,0x20)
        op(OpType::TxAdd, 0x20, 0x10), // [0x20,0x30): adjacent
        op(OpType::TxAdd, 0x18, 0x10), // [0x18,0x28): in the union
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(report.findings().size(), 1u) << report.str();
    EXPECT_EQ(report.findings()[0].kind, FindingKind::DuplicateLog);
    EXPECT_EQ(report.findings()[0].opIndex, 3u);
}

TEST(EngineTest, LogResetBetweenTraces)
{
    // A trace that ends inside its transaction leaves its TX_ADDs in
    // the log; the next trace on the same engine must not see them.
    Engine engine(ModelKind::X86);
    const Report first = engine.check(makeTrace({
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
    }));
    ASSERT_EQ(first.findings().size(), 1u);
    EXPECT_EQ(first.findings()[0].kind, FindingKind::UnmatchedTx);
    const Report second = engine.check(makeTrace({
        op(OpType::TxBegin),
        PmOp::write(0x10, 8),
        op(OpType::TxEnd),
    }));
    ASSERT_EQ(second.findings().size(), 1u) << second.str();
    EXPECT_EQ(second.findings()[0].kind, FindingKind::MissingLog);
}

/**
 * Randomized differential for the TX log: nested and unmatched
 * transactions, overlapping, adjacent and duplicate TX_ADDs and
 * writes at byte granularity, against a per-byte "logged" set that
 * the outermost TX_END clears. MissingLog must fire iff a write
 * inside a transaction touches an unlogged byte, DuplicateLog iff
 * every byte of a TX_ADD is already logged.
 */
class EngineTxLogRandomTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EngineTxLogRandomTest, MatchesPerByteReference)
{
    constexpr uint64_t kSpan = 256;
    using Hit = std::pair<size_t, FindingKind>;
    Rng rng(GetParam());
    size_t missing = 0, duplicate = 0;
    for (const Engine::Dispatch dispatch :
         {Engine::Dispatch::Batched, Engine::Dispatch::PerOp}) {
        Engine engine(ModelKind::X86, dispatch);
        for (int t = 0; t < 200; t++) {
            std::vector<bool> logged(kSpan);
            int depth = 0;
            std::vector<Hit> want;
            Trace trace(t, 0);
            const size_t n = 1 + rng.below(60);
            for (size_t i = 0; i < n; i++) {
                const uint64_t addr = rng.below(kSpan - 32);
                const uint64_t size = 1 + rng.below(32);
                const auto begin = logged.begin() + addr;
                const auto end = begin + size;
                const uint64_t dice = rng.below(10);
                if (dice < 2) {
                    trace.append(op(OpType::TxBegin));
                    depth++;
                } else if (dice < 3) {
                    trace.append(op(OpType::TxEnd));
                    if (depth > 0 && --depth == 0)
                        logged.assign(kSpan, false);
                } else if (dice < 6) {
                    trace.append(op(OpType::TxAdd, addr, size));
                    if (depth == 0)
                        continue; // Malformed, not logged
                    if (std::all_of(begin, end, [](bool b) { return b; }))
                        want.emplace_back(i, FindingKind::DuplicateLog);
                    std::fill(begin, end, true);
                } else {
                    trace.append(PmOp::write(addr, size));
                    if (depth > 0 &&
                        !std::all_of(begin, end, [](bool b) { return b; }))
                        want.emplace_back(i, FindingKind::MissingLog);
                }
            }
            const Report report = engine.check(trace);
            std::vector<Hit> got;
            for (const Finding &f : report.findings()) {
                if (f.kind == FindingKind::MissingLog ||
                    f.kind == FindingKind::DuplicateLog)
                    got.emplace_back(f.opIndex, f.kind);
            }
            ASSERT_EQ(got, want) << "trace " << t;
            for (const Hit &hit : want)
                (hit.second == FindingKind::MissingLog ? missing
                                                       : duplicate)++;
        }
    }
    // Both verdicts must actually occur, or the differential is vacuous.
    EXPECT_GT(missing, 0u);
    EXPECT_GT(duplicate, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineTxLogRandomTest,
                         ::testing::Values(10, 20, 30));

TEST(EngineTest, TxCheckerDetectsIncompleteTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        op(OpType::TxEnd), // no flush/fence: update may be volatile
        op(OpType::TxCheckEnd),
    }));
    ASSERT_GE(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::IncompleteTx);
}

TEST(EngineTest, TxCheckerPassesCompleteTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxAdd, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        op(OpType::TxEnd),
        op(OpType::TxCheckEnd),
    }));
    EXPECT_TRUE(report.passed()) << report.str();
}

TEST(EngineTest, TxCheckerFlagsOpenTransaction)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxCheckStart),
        op(OpType::TxBegin),
        op(OpType::TxCheckEnd), // TX still open here
        op(OpType::TxEnd),
    }));
    ASSERT_GE(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::UnmatchedTx);
}

TEST(EngineTest, ExcludedRangeIsNotChecked)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::Exclude, 0x10, 64),
        op(OpType::TxBegin),
        PmOp::write(0x10, 64), // excluded: no missing-log finding
        op(OpType::TxEnd),
        PmOp::isPersist(0x10, 64), // excluded: checker skipped
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, IncludeRestoresTracking)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::Exclude, 0x10, 64),
        op(OpType::Include, 0x10, 64),
        PmOp::write(0x10, 64),
        PmOp::isPersist(0x10, 64), // not flushed: FAIL expected
    }));
    EXPECT_EQ(report.failCount(), 1u);
}

TEST(EngineTest, UnterminatedTransactionFlagged)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxBegin),
    }));
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].kind, FindingKind::UnmatchedTx);
}

TEST(EngineTest, MalformedTxEventsFlagged)
{
    Engine engine(ModelKind::X86);
    const Report report = engine.check(makeTrace({
        op(OpType::TxEnd),
        op(OpType::TxAdd, 0x10, 8),
        op(OpType::TxCheckEnd),
    }));
    EXPECT_EQ(report.failCount(), 3u);
    for (const auto &f : report.findings())
        EXPECT_EQ(f.kind, FindingKind::Malformed);
}

TEST(EngineTest, TracesAreIndependent)
{
    // State (epochs, log tree, exclusions) must not leak between
    // traces: the same trace checked twice yields the same result.
    Engine engine(ModelKind::X86);
    const auto trace = makeTrace({
        op(OpType::Exclude, 0x900, 64),
        PmOp::write(0x10, 64),
        PmOp::clwb(0x10, 64),
        PmOp::sfence(),
        PmOp::isPersist(0x10, 64),
    });
    EXPECT_TRUE(engine.check(trace).clean());
    EXPECT_TRUE(engine.check(trace).clean());
    EXPECT_EQ(engine.tracesChecked(), 2u);
    EXPECT_EQ(engine.opsProcessed(), 10u);
}

TEST(EngineTest, HopsEngineChecksHopsTraces)
{
    Engine engine(ModelKind::Hops);
    const Report report = engine.check(makeTrace({
        PmOp::write(0x10, 64),
        PmOp::ofence(),
        PmOp::write(0x50, 64),
        PmOp::dfence(),
        PmOp::isOrderedBefore(0x10, 64, 0x50, 64),
        PmOp::isPersist(0x10, 64),
        PmOp::isPersist(0x50, 64),
    }));
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(EngineTest, FindingCarriesLocation)
{
    Engine engine(ModelKind::X86);
    Trace t(1, 0);
    t.append(PmOp::write(0x10, 64));
    t.append(PmOp::isPersist(0x10, 64,
                             SourceLocation("app.cc", 99)));
    const Report report = engine.check(t);
    ASSERT_EQ(report.failCount(), 1u);
    EXPECT_EQ(report.findings()[0].loc.str(), "app.cc:99");
}

} // namespace
} // namespace pmtest::core
