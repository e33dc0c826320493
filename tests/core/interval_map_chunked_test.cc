/**
 * @file
 * Chunk-layout validation of the IntervalMap backing store: fuzzed
 * equivalence of the chunked map against the retired flat sorted
 * vector under mixed assign/erase/covers/overlap/batch sequences,
 * entry-for-entry — the fragmentation a given op sequence produces
 * is observable engine behavior, so both layouts must store
 * literally identical entries. Plus
 * deterministic units for the seams the fuzz can't aim at reliably:
 * an exactly-full chunk splitting, a near-empty chunk merging, and
 * range ops spanning multiple chunks.
 */

#include "core/interval_map.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bench/flat_interval_map.hh"
#include "util/random.hh"

namespace pmtest::core
{
namespace
{

constexpr size_t kCap = IntervalMap<uint64_t>::kChunkCapacity;

using Entries = std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>;

Entries
dump(const IntervalMap<uint64_t> &map)
{
    Entries out;
    map.forEach([&](const auto &e) {
        out.emplace_back(e.start, e.end, e.value);
    });
    return out;
}

Entries
dump(const bench::FlatIntervalMap<uint64_t> &map)
{
    Entries out;
    map.forEach([&](const auto &e) {
        out.emplace_back(e.start, e.end, e.value);
    });
    return out;
}

/** Sorted pairwise-disjoint ranges, as assignBatch requires. */
std::vector<AddrRange>
randomDisjointRanges(Rng &rng, size_t max_n, uint64_t span)
{
    std::vector<AddrRange> ranges;
    const size_t n = 1 + rng.below(max_n);
    for (size_t i = 0; i < n; i++)
        ranges.emplace_back(rng.below(span), 8 + rng.below(200));
    std::sort(ranges.begin(), ranges.end(),
              [](const AddrRange &a, const AddrRange &b) {
                  return a.addr < b.addr;
              });
    std::vector<AddrRange> disjoint;
    uint64_t pos = 0;
    for (const AddrRange &r : ranges) {
        if (r.addr >= pos) {
            disjoint.push_back(r);
            pos = r.end();
        }
    }
    return disjoint;
}

TEST(IntervalMapChunkedTest, FuzzedEquivalenceWithRetiredLayouts)
{
    // Wide address space and wide ranges: populations run to many
    // hundreds of entries (dozens of chunks), ranges regularly cross
    // chunk seams, and erases empty whole chunks.
    for (uint64_t seed = 1; seed <= 6; seed++) {
        Rng rng(seed * 0x1234567);
        IntervalMap<uint64_t> chunked;
        bench::FlatIntervalMap<uint64_t> flat;

        for (int step = 0; step < 2500; step++) {
            const uint64_t span = 64 << 10;
            const AddrRange range(rng.below(span),
                                  8 + rng.below(1500));
            const uint64_t value = rng.below(1000);
            switch (rng.below(12)) {
              case 0:
              case 1:
              case 2:
              case 3:
                chunked.assign(range, value);
                flat.assign(range, value);
                break;
              case 4:
              case 5:
                chunked.erase(range);
                flat.erase(range);
                break;
              case 6:
                ASSERT_EQ(chunked.covers(range), flat.covers(range))
                    << "seed " << seed << " step " << step;
                break;
              case 7:
                ASSERT_EQ(chunked.anyOverlap(range),
                          flat.anyOverlap(range))
                    << "seed " << seed << " step " << step;
                break;
              case 8: {
                Entries a, b;
                chunked.forEachOverlap(range, [&](const auto &e) {
                    a.emplace_back(e.start, e.end, e.value);
                });
                flat.forEachOverlap(range, [&](const auto &e) {
                    b.emplace_back(e.start, e.end, e.value);
                });
                ASSERT_EQ(a, b)
                    << "seed " << seed << " step " << step;
                break;
              }
              case 9: {
                // Batched assign on the chunked map vs the same
                // ranges applied one by one to the baseline.
                const auto batch =
                    randomDisjointRanges(rng, 40, span);
                chunked.assignBatch(batch.data(), batch.size(),
                                    value);
                for (const AddrRange &r : batch)
                    flat.assign(r, value);
                break;
              }
              case 10: {
                // Batched overlap walk vs per-probe forEachOverlap.
                const auto probes =
                    randomDisjointRanges(rng, 20, span);
                Entries a, b;
                chunked.forEachOverlapBatch(
                    probes.data(), probes.size(),
                    [&](size_t, const auto &e) {
                        a.emplace_back(e.start, e.end, e.value);
                    });
                for (const AddrRange &r : probes)
                    flat.forEachOverlap(r, [&](const auto &e) {
                        b.emplace_back(e.start, e.end, e.value);
                    });
                ASSERT_EQ(a, b)
                    << "seed " << seed << " step " << step;
                break;
              }
              default:
                if (rng.below(40) == 0) {
                    chunked.clear();
                    flat.clear();
                }
                break;
            }
            ASSERT_TRUE(chunked.validate())
                << "seed " << seed << " step " << step;
            if (step % 16 == 0) {
                const Entries expected = dump(flat);
                ASSERT_EQ(dump(chunked), expected)
                    << "seed " << seed << " step " << step;
            }
        }
        // Final full-state check.
        ASSERT_EQ(dump(chunked), dump(flat)) << "seed " << seed;
    }
}

TEST(IntervalMapChunkedTest, ExactlyFullChunkSplitsOnNextInsert)
{
    IntervalMap<uint64_t> map;
    // Disjoint 8-byte entries with gaps, ascending: appends fill one
    // chunk to exactly kChunkCapacity without splitting.
    for (size_t i = 0; i < kCap; i++)
        map.assign(AddrRange(32 * i, 8), i);
    ASSERT_TRUE(map.validate());
    EXPECT_EQ(map.chunkCount(), 1u);
    EXPECT_EQ(map.size(), kCap);

    // One more entry in a middle gap pushes past capacity: split.
    map.assign(AddrRange(32 * (kCap / 2) + 16, 8), 777);
    ASSERT_TRUE(map.validate());
    EXPECT_EQ(map.chunkCount(), 2u);
    EXPECT_EQ(map.size(), kCap + 1);
    EXPECT_TRUE(map.covers(AddrRange(32 * (kCap / 2) + 16, 8)));
}

TEST(IntervalMapChunkedTest, NearEmptyChunkMergesWithNeighbor)
{
    IntervalMap<uint64_t> map;
    // Force a split, then erase almost all of the right chunk: the
    // single surviving entry must fold back into its neighbor.
    for (size_t i = 0; i <= kCap; i++)
        map.assign(AddrRange(32 * i, 8), i);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(map.chunkCount(), 2u);

    // Erase everything except the first entry of the left chunk and
    // the very last entry: the right chunk shrinks to one entry and
    // merges (combined size is far below the merge limit).
    map.erase(AddrRange(8, 32 * kCap - 8));
    ASSERT_TRUE(map.validate());
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.chunkCount(), 1u);
    EXPECT_TRUE(map.covers(AddrRange(0, 8)));
    EXPECT_TRUE(map.covers(AddrRange(32 * kCap, 8)));
}

TEST(IntervalMapChunkedTest, CrossChunkRangeEraseAndAssign)
{
    IntervalMap<uint64_t> map;
    bench::FlatIntervalMap<uint64_t> flat;
    // Several chunks worth of disjoint entries.
    const size_t n = 4 * kCap;
    for (size_t i = 0; i < n; i++) {
        map.assign(AddrRange(32 * i, 8), i);
        flat.assign(AddrRange(32 * i, 8), i);
    }
    ASSERT_TRUE(map.validate());
    ASSERT_GE(map.chunkCount(), 3u);

    // Erase from inside the first chunk to inside the last: middle
    // chunks vanish whole, the boundary entries are carved.
    const AddrRange hole(32 * 10 + 4, 32 * (n - 10) - 8);
    map.erase(hole);
    flat.erase(hole);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(dump(map), dump(flat));
    EXPECT_FALSE(map.anyOverlap(hole));

    // Assign straight across what is left: one entry replaces every
    // chunk in the span.
    const AddrRange blanket(16, 32 * n);
    map.assign(blanket, 4242);
    flat.assign(blanket, 4242);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(dump(map), dump(flat));
    EXPECT_TRUE(map.covers(blanket));
}

TEST(IntervalMapChunkedTest, BatchSeamAndCapacityBoundaries)
{
    IntervalMap<uint64_t> map;
    bench::FlatIntervalMap<uint64_t> flat;

    // A batch that exactly fills one chunk via the append path.
    std::vector<AddrRange> fill;
    for (size_t i = 0; i < kCap; i++)
        fill.emplace_back(64 * i, 16);
    map.assignBatch(fill.data(), fill.size(), 1);
    for (const AddrRange &r : fill)
        flat.assign(r, 1);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(dump(map), dump(flat));

    // Gap inserts into the exactly-full chunk: room for only two
    // extra items before the buffer cap, so the run is clipped and
    // the overflowing chunk splits mid-batch.
    std::vector<AddrRange> gaps;
    for (const size_t i : {size_t{5}, size_t{6}, size_t{7},
                           size_t{40}, size_t{90}})
        gaps.emplace_back(64 * i + 24, 8);
    map.assignBatch(gaps.data(), gaps.size(), 3);
    for (const AddrRange &r : gaps)
        flat.assign(r, 3);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(dump(map), dump(flat));

    // A batch whose ranges straddle the seam between the existing
    // population and fresh address space, overlap stored entries,
    // and include empties — the fallback paths.
    std::vector<AddrRange> mixed;
    mixed.emplace_back(64 * (kCap - 2) + 8, 100); // overlaps stored
    mixed.emplace_back(64 * kCap + 8, 0);         // empty: skipped
    mixed.emplace_back(64 * kCap + 16, 16);       // past the end
    mixed.emplace_back(64 * (kCap + 4), 4096);    // long append
    map.assignBatch(mixed.data(), mixed.size(), 2);
    for (const AddrRange &r : mixed)
        flat.assign(r, 2);
    ASSERT_TRUE(map.validate());
    ASSERT_EQ(dump(map), dump(flat));

    // Batched walk over probes spanning the whole population, one
    // probe crossing every seam.
    std::vector<AddrRange> probes;
    probes.emplace_back(0, 64 * (kCap + 100));
    Entries a, b;
    map.forEachOverlapBatch(probes.data(), probes.size(),
                            [&](size_t, const auto &e) {
                                a.emplace_back(e.start, e.end,
                                               e.value);
                            });
    flat.forEachOverlap(probes[0], [&](const auto &e) {
        b.emplace_back(e.start, e.end, e.value);
    });
    ASSERT_EQ(a, b);
}

} // namespace
} // namespace pmtest::core
