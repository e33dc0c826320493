#include "core/hops_model.hh"

#include <gtest/gtest.h>

namespace pmtest::core
{
namespace
{

class HopsModelTest : public ::testing::Test
{
  protected:
    void
    apply(const PmOp &op)
    {
        model_.apply(op, shadow_, report_, index_++);
    }

    HopsModel model_;
    ShadowMemory shadow_;
    Report report_;
    size_t index_ = 0;
};

TEST_F(HopsModelTest, PaperFig3bTrace)
{
    // write A; ofence; write B; dfence — both ordered and persisted.
    apply(PmOp::write(0x10, 64)); // A
    apply(PmOp::ofence());
    apply(PmOp::write(0x50, 64)); // B
    apply(PmOp::dfence());

    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                          AddrRange(0x50, 64),
                                          shadow_));
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x50, 64), shadow_));
    EXPECT_TRUE(report_.clean());
}

TEST_F(HopsModelTest, OfenceOrdersWithoutDurability)
{
    // Ordering holds after an ofence even though neither write is
    // durable — the defining HOPS relaxation (§5.2).
    apply(PmOp::write(0x10, 64));
    apply(PmOp::ofence());
    apply(PmOp::write(0x50, 64));

    EXPECT_TRUE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                          AddrRange(0x50, 64),
                                          shadow_));
    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x10, 64), shadow_));
    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x50, 64), shadow_));
}

TEST_F(HopsModelTest, MissingOfenceBreaksOrdering)
{
    apply(PmOp::write(0x10, 64));
    apply(PmOp::write(0x50, 64)); // same epoch: unordered
    EXPECT_FALSE(model_.checkOrderedBefore(AddrRange(0x10, 64),
                                           AddrRange(0x50, 64),
                                           shadow_));
}

TEST_F(HopsModelTest, DfencePersistsEverythingPrior)
{
    apply(PmOp::write(0x10, 8));
    apply(PmOp::write(0x200, 8));
    apply(PmOp::dfence());
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x10, 8), shadow_));
    EXPECT_TRUE(model_.checkPersisted(AddrRange(0x200, 8), shadow_));
}

TEST_F(HopsModelTest, WriteAfterDfenceIsNotCovered)
{
    apply(PmOp::write(0x10, 8));
    apply(PmOp::dfence());
    apply(PmOp::write(0x50, 8));
    EXPECT_FALSE(model_.checkPersisted(AddrRange(0x50, 8), shadow_));
}

TEST_F(HopsModelTest, X86OpsAreMalformed)
{
    apply(PmOp::clwb(0x10, 64));
    apply(PmOp::sfence());
    EXPECT_EQ(report_.failCount(), 2u);
    for (const auto &f : report_.findings())
        EXPECT_EQ(f.kind, FindingKind::Malformed);
}

} // namespace
} // namespace pmtest::core
