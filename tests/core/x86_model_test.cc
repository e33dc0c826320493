#include "core/x86_model.hh"

#include <gtest/gtest.h>

namespace pmtest::core
{
namespace
{

class X86ModelTest : public ::testing::Test
{
  protected:
    void
    apply(const PmOp &op)
    {
        model_.apply(op, shadow_, report_, index_++);
    }

    X86Model model_;
    ShadowMemory shadow_;
    Report report_;
    size_t index_ = 0;
};

TEST_F(X86ModelTest, WriteClwbSfencePersists)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
    EXPECT_TRUE(report_.clean());
}

TEST_F(X86ModelTest, MissingClwbNeverPersists)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::sfence());
    const RuleVerdict verdict =
        model_.checkPersisted(AddrRange(0x10, 64), shadow_);
    EXPECT_FALSE(verdict);
    // The evidence: the open range and the epoch it is still open at.
    EXPECT_EQ(verdict.cause, Cause::PersistOpen);
    EXPECT_EQ(verdict.evidence.rangeA.addr, 0x10u);
    EXPECT_EQ(verdict.evidence.rangeA.size, 64u);
    EXPECT_EQ(verdict.evidence.epochA, shadow_.timestamp());
}

TEST_F(X86ModelTest, PaperFig4Trace)
{
    // sfence; write A; clwb A; write B; sfence —
    // isOrderedBefore(A,B) FAILs (intervals overlap) and isPersist(B)
    // FAILs (no writeback for B).
    apply(PmOp::sfence());
    apply(PmOp::write(0x10, 64)); // A
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::write(0x50, 64)); // B
    apply(PmOp::sfence());

    EXPECT_FALSE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                           AddrRange(0x50, 64),
                                           shadow_));
    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x50, 64), shadow_));
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
}

TEST_F(X86ModelTest, PaperFig7Trace)
{
    // write(0x10,64); clwb(0x10,64); sfence; write(0x50,64);
    // isPersist(0x50) FAILs, isOrderedBefore(0x10, 0x50) passes.
    apply(PmOp::write(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    apply(PmOp::write(0x50, 64));

    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x50, 64), shadow_));
    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                          AddrRange(0x50, 64),
                                          shadow_));
}

TEST_F(X86ModelTest, OrderedBeforeFailsWhenAPersistsAfterB)
{
    // B persists in epoch window (0,1); A only in (1,2): "A before B"
    // must fail even though the intervals do not overlap.
    apply(PmOp::write(0x50, 64)); // B
    apply(PmOp::clwb(0x50, 64));
    apply(PmOp::sfence());
    apply(PmOp::write(0x10, 64)); // A
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());

    EXPECT_FALSE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                           AddrRange(0x50, 64),
                                           shadow_));
    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x50, 64),
                                          AddrRange(0x10, 64),
                                          shadow_));
}

TEST_F(X86ModelTest, OrderedBeforeVacuousWithoutWrites)
{
    apply(PmOp::write(0x10, 64));
    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                          AddrRange(0x900, 64),
                                          shadow_));
    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x900, 64),
                                          AddrRange(0x10, 64),
                                          shadow_));
}

TEST_F(X86ModelTest, RedundantFlushWarned)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    ASSERT_EQ(report_.warnCount(), 1u);
    EXPECT_EQ(report_.findings()[0].kind, FindingKind::RedundantFlush);
}

TEST_F(X86ModelTest, UnnecessaryFlushOfUnmodifiedData)
{
    apply(PmOp::clwb(0x900, 64));
    ASSERT_EQ(report_.warnCount(), 1u);
    EXPECT_EQ(report_.findings()[0].kind,
              FindingKind::UnnecessaryFlush);
}

TEST_F(X86ModelTest, UnnecessaryFlushOfCleanData)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    apply(PmOp::clwb(0x10, 64)); // data already persistent
    ASSERT_EQ(report_.warnCount(), 1u);
    EXPECT_EQ(report_.findings()[0].kind,
              FindingKind::UnnecessaryFlush);
}

TEST_F(X86ModelTest, FreshWriteThenFlushIsClean)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    apply(PmOp::write(0x10, 64)); // re-dirty
    apply(PmOp::clwb(0x10, 64)); // legitimate second flush
    apply(PmOp::sfence());
    EXPECT_TRUE(report_.clean());
}

TEST_F(X86ModelTest, HopsFencesAreMalformed)
{
    apply(PmOp::ofence());
    apply(PmOp::dfence());
    EXPECT_EQ(report_.failCount(), 2u);
    EXPECT_EQ(report_.findings()[0].kind, FindingKind::Malformed);
}

TEST_F(X86ModelTest, ClflushVariantsBehaveLikeClwb)
{
    apply(PmOp{OpType::Clflush, 0x10, 64, 0, 0, {}});
    // Flush of unmodified data warns, like clwb.
    EXPECT_EQ(report_.warnCount(), 1u);

    apply(PmOp::write(0x80, 64));
    apply(PmOp{OpType::ClflushOpt, 0x80, 64, 0, 0, {}});
    apply(PmOp::sfence());
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x80, 64), shadow_));
}

} // namespace
} // namespace pmtest::core
