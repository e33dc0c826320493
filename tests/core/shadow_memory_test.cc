#include "core/shadow_memory.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace pmtest::core
{
namespace
{

/** The persist intervals over @p range (clipped), in address order. */
std::vector<std::pair<AddrRange, Interval>>
persistIntervals(const ShadowMemory &shadow, const AddrRange &range)
{
    std::vector<std::pair<AddrRange, Interval>> out;
    shadow.forEachPersist(range,
                          [&](const AddrRange &r, const Interval &i) {
                              out.emplace_back(r, i);
                          });
    return out;
}

TEST(ShadowMemoryTest, WriteOpensPersistInterval)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    const auto intervals = persistIntervals(shadow, AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval::open(0));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 64)));
}

TEST(ShadowMemoryTest, UnwrittenRangePassesVacuously)
{
    ShadowMemory shadow;
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x1000, 64)));
    EXPECT_FALSE(shadow.anyWrite(AddrRange(0x1000, 64)));
}

TEST(ShadowMemoryTest, FenceClosesFlushedWrite)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    shadow.recordClwb(AddrRange(0x10, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();

    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x10, 64)));
    const auto intervals = persistIntervals(shadow, AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval(0, 1));
}

TEST(ShadowMemoryTest, FenceWithoutFlushLeavesOpen)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 64)));
}

TEST(ShadowMemoryTest, WriteAfterClwbInvalidatesPendingFlush)
{
    // write A; clwb A; write A; sfence — the second store is not
    // covered by the writeback (paper §4.4 write rule clears status).
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 8)));
}

TEST(ShadowMemoryTest, PartialOverwriteKeepsOtherBytes)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 64));
    shadow.recordClwb(AddrRange(0, 64));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes(); // all persisted

    shadow.recordWrite(AddrRange(16, 16)); // re-dirty the middle
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 16)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(16, 16)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0, 64)));
    AddrRange open;
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0, 64), &open));
    EXPECT_EQ(open.addr, 16u);
}

TEST(ShadowMemoryTest, ScanClwbFlagsRedundantFlush)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    EXPECT_FALSE(shadow.recordClwb(AddrRange(0x10, 8)).redundant);
    const ClwbScan scan = shadow.recordClwb(AddrRange(0x10, 8));
    EXPECT_TRUE(scan.redundant);
}

TEST(ShadowMemoryTest, ScanClwbFlagsUnmodifiedData)
{
    ShadowMemory shadow;
    const ClwbScan scan = shadow.recordClwb(AddrRange(0x99, 8));
    EXPECT_TRUE(scan.unmodified);
    EXPECT_FALSE(scan.redundant);
}

TEST(ShadowMemoryTest, ScanClwbFlagsAlreadyCleanData)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    const ClwbScan scan = shadow.recordClwb(AddrRange(0x10, 8));
    EXPECT_TRUE(scan.alreadyClean);
    EXPECT_FALSE(scan.redundant);
    EXPECT_FALSE(scan.unmodified);
}

TEST(ShadowMemoryTest, CleanScanOnFreshWrite)
{
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    const ClwbScan scan = shadow.recordClwb(AddrRange(0x10, 8));
    EXPECT_FALSE(scan.redundant);
    EXPECT_FALSE(scan.unmodified);
    EXPECT_FALSE(scan.alreadyClean);
}

TEST(ShadowMemoryTest, DuplicateClwbCoalescesWithinEpoch)
{
    // Regression: repeated clwb of the same line used to append a new
    // fence-pending entry per call, making completePendingFlushes()
    // O(flushes x overlaps) within an epoch. Duplicates must coalesce
    // at record time.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 64));
    for (int i = 0; i < 1000; i++)
        shadow.recordClwb(AddrRange(0x10, 64));
    EXPECT_EQ(shadow.pendingFlushCount(), 1u);

    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_EQ(shadow.pendingFlushCount(), 0u);
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x10, 64)));
    const auto intervals = persistIntervals(shadow, AddrRange(0x10, 64));
    ASSERT_EQ(intervals.size(), 1u);
    EXPECT_EQ(intervals[0].second, Interval(0, 1));
}

TEST(ShadowMemoryTest, OverlappingClwbRangesStayDisjoint)
{
    // Overlapping flush ranges carve into disjoint pending entries
    // instead of accumulating one entry per issued clwb.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 128));
    for (int i = 0; i < 100; i++) {
        shadow.recordClwb(AddrRange(0, 64));
        shadow.recordClwb(AddrRange(32, 64)); // overlaps the first
    }
    EXPECT_LE(shadow.pendingFlushCount(), 3u);

    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 96)));
    EXPECT_FALSE(shadow.allPersisted(AddrRange(96, 32))); // unflushed
}

TEST(ShadowMemoryTest, DuplicateWritesCoalesceOpenWriteBookkeeping)
{
    // The HOPS dfence path keeps written-since-dfence ranges; writing
    // the same word in a loop must not grow that set.
    ShadowMemory shadow;
    for (int i = 0; i < 1000; i++)
        shadow.recordWrite(AddrRange(0x40, 8));
    EXPECT_EQ(shadow.openWriteCount(), 1u);

    shadow.bumpTimestamp();
    shadow.completeAllWrites();
    EXPECT_EQ(shadow.openWriteCount(), 0u);
    EXPECT_TRUE(shadow.allPersisted(AddrRange(0x40, 8)));
}

TEST(ShadowMemoryTest, WriteAfterClwbStillInvalidatesCoalescedFlush)
{
    // The coalesced bookkeeping must preserve the invalidation rule:
    // a write after the clwb reopens the persist interval even though
    // the pending-flush range was recorded only once.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8));
    shadow.recordClwb(AddrRange(0x10, 8)); // duplicate
    shadow.recordWrite(AddrRange(0x10, 8)); // invalidates both
    shadow.bumpTimestamp();
    shadow.completePendingFlushes();
    EXPECT_FALSE(shadow.allPersisted(AddrRange(0x10, 8)));
}

TEST(ShadowMemoryTest, CompleteAllWritesClosesEverything)
{
    // The HOPS dfence rule.
    ShadowMemory shadow;
    shadow.recordWrite(AddrRange(0, 8));
    shadow.bumpTimestamp(); // ofence
    shadow.recordWrite(AddrRange(64, 8));
    shadow.bumpTimestamp(); // dfence...
    shadow.completeAllWrites();

    EXPECT_TRUE(shadow.allPersisted(AddrRange(0, 8)));
    EXPECT_TRUE(shadow.allPersisted(AddrRange(64, 8)));
    const auto a = persistIntervals(shadow, AddrRange(0, 8));
    const auto b = persistIntervals(shadow, AddrRange(64, 8));
    EXPECT_EQ(a[0].second, Interval(0, 2));
    EXPECT_EQ(b[0].second, Interval(1, 2));
}

} // namespace
} // namespace pmtest::core
