#include "core/arm_model.hh"

#include <gtest/gtest.h>

#include "core/engine.hh"

namespace pmtest::core
{
namespace
{

class ArmModelTest : public ::testing::Test
{
  protected:
    void
    apply(const PmOp &op)
    {
        model_.apply(op, shadow_, report_, index_++);
    }

    ArmModel model_;
    ShadowMemory shadow_;
    Report report_;
    size_t index_ = 0;
};

TEST_F(ArmModelTest, WriteCleanDsbPersists)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::dcCvap(0x10, 64));
    apply(PmOp::dsb());
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
    EXPECT_TRUE(report_.clean());
}

TEST_F(ArmModelTest, MissingCleanNeverPersists)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::dsb());
    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
}

TEST_F(ArmModelTest, DsbOrdersLikeSfence)
{
    apply(PmOp::write(0x10, 64)); // A
    apply(PmOp::dcCvap(0x10, 64));
    apply(PmOp::dsb());
    apply(PmOp::write(0x50, 64)); // B
    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                          AddrRange(0x50, 64),
                                          shadow_));
    EXPECT_FALSE(model_.checkOrderedBefore(AddrRange(0x50, 64),
                                           AddrRange(0x10, 64),
                                           shadow_));
}

TEST_F(ArmModelTest, RedundantCleanWarned)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::dcCvap(0x10, 64));
    apply(PmOp::dcCvap(0x10, 64));
    ASSERT_EQ(report_.warnCount(), 1u);
    EXPECT_EQ(report_.findings()[0].kind, FindingKind::RedundantFlush);
}

TEST_F(ArmModelTest, UnnecessaryCleanWarned)
{
    apply(PmOp::dcCvap(0x900, 64));
    ASSERT_EQ(report_.warnCount(), 1u);
    EXPECT_EQ(report_.findings()[0].kind,
              FindingKind::UnnecessaryFlush);
}

TEST_F(ArmModelTest, ForeignOpsAreMalformed)
{
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    apply(PmOp::ofence());
    apply(PmOp::dfence());
    EXPECT_EQ(report_.failCount(), 4u);
    for (const auto &f : report_.findings())
        EXPECT_EQ(f.kind, FindingKind::Malformed);
}

TEST_F(ArmModelTest, ArmOpsMalformedUnderOtherModels)
{
    Engine x86(ModelKind::X86);
    Trace t(1, 0);
    t.append(PmOp::dcCvap(0x10, 64));
    t.append(PmOp::dsb());
    EXPECT_EQ(x86.check(t).failCount(), 2u);

    Engine hops(ModelKind::Hops);
    EXPECT_EQ(hops.check(t).failCount(), 2u);
}

TEST_F(ArmModelTest, EngineEndToEndWithArmModel)
{
    Engine engine(ModelKind::Arm);
    Trace t(1, 0);
    t.append(PmOp::write(0x10, 64));
    t.append(PmOp::dcCvap(0x10, 64));
    t.append(PmOp::dsb());
    t.append(PmOp::write(0x50, 64));
    t.append(PmOp::isPersist(0x10, 64));        // pass
    t.append(PmOp::isPersist(0x50, 64));        // FAIL
    t.append(PmOp::isOrderedBefore(0x10, 64, 0x50, 64)); // pass
    const Report report = engine.check(t);
    ASSERT_EQ(report.failCount(), 1u) << report.str();
    EXPECT_EQ(report.findings()[0].kind, FindingKind::NotPersisted);
}

} // namespace
} // namespace pmtest::core
