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
 * range ops spanning multiple chunks; and a finger test that probes
 * every read path right after each kind of mutation, where the cached
 * (chunk, item) finger is either exactly right or stale.
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

/**
 * Every read path probed at @p probe on both maps: covers, anyOverlap,
 * forEachOverlap, and a batch walk that starts at address 0 and so
 * enters the probe's chunk fresh (the walk's per-chunk placement).
 */
testing::AssertionResult
sameReads(const IntervalMap<uint64_t> &map,
          const bench::FlatIntervalMap<uint64_t> &flat,
          const AddrRange &probe)
{
    if (map.covers(probe) != flat.covers(probe))
        return testing::AssertionFailure()
               << "covers [" << probe.addr << ", " << probe.end() << ")";
    if (map.anyOverlap(probe) != flat.anyOverlap(probe))
        return testing::AssertionFailure()
               << "anyOverlap [" << probe.addr << ", " << probe.end()
               << ")";
    Entries a, b;
    map.forEachOverlap(probe, [&](const auto &e) {
        a.emplace_back(e.start, e.end, e.value);
    });
    flat.forEachOverlap(probe, [&](const auto &e) {
        b.emplace_back(e.start, e.end, e.value);
    });
    if (a != b)
        return testing::AssertionFailure()
               << "forEachOverlap [" << probe.addr << ", " << probe.end()
               << ")";
    std::vector<AddrRange> batch;
    if (probe.addr >= 1)
        batch.emplace_back(0, 1);
    batch.push_back(probe);
    a.clear();
    b.clear();
    map.forEachOverlapBatch(batch.data(), batch.size(),
                            [&](size_t, const auto &e) {
                                a.emplace_back(e.start, e.end, e.value);
                            });
    for (const AddrRange &r : batch)
        flat.forEachOverlap(r, [&](const auto &e) {
            b.emplace_back(e.start, e.end, e.value);
        });
    if (a != b)
        return testing::AssertionFailure()
               << "forEachOverlapBatch [" << probe.addr << ", "
               << probe.end() << ")";
    return testing::AssertionSuccess();
}

/**
 * Probes around the last-assigned range @p r: the range itself (the
 * finger's hit path), its neighbours on both sides, a straddle, one
 * byte inside, a wide window that crosses chunk seams, and the
 * left/range/right triple as one batch.
 */
testing::AssertionResult
sameReadsAround(const IntervalMap<uint64_t> &map,
                const bench::FlatIntervalMap<uint64_t> &flat,
                const AddrRange &r)
{
    const uint64_t left = r.addr >= 40 ? r.addr - 40 : 0;
    const uint64_t below = r.addr >= 256 ? r.addr - 256 : 0;
    const AddrRange probes[] = {
        r,
        AddrRange(left, r.addr - left),
        AddrRange(r.end(), 40),
        AddrRange(r.addr >= 4 ? r.addr - 4 : 0, r.size + 8),
        AddrRange(r.addr + r.size / 2, 1),
        AddrRange(below, r.end() + 256 - below),
    };
    for (const AddrRange &probe : probes) {
        testing::AssertionResult same = sameReads(map, flat, probe);
        if (!same)
            return same;
    }
    const AddrRange triple[] = {probes[1], r, probes[2]};
    Entries a, b;
    map.forEachOverlapBatch(triple, 3, [&](size_t, const auto &e) {
        a.emplace_back(e.start, e.end, e.value);
    });
    for (const AddrRange &t : triple)
        flat.forEachOverlap(t, [&](const auto &e) {
            b.emplace_back(e.start, e.end, e.value);
        });
    if (a != b)
        return testing::AssertionFailure()
               << "triple batch around [" << r.addr << ", " << r.end()
               << ")";
    return testing::AssertionSuccess();
}

/**
 * Probes every stored entry exactly and every span from the middle of
 * one entry to the middle of the next, so each chunk seam is crossed.
 */
testing::AssertionResult
sameReadsEverywhere(const IntervalMap<uint64_t> &map,
                    const bench::FlatIntervalMap<uint64_t> &flat)
{
    const Entries entries = dump(flat);
    if (dump(map) != entries)
        return testing::AssertionFailure() << "stored entries differ";
    for (size_t k = 0; k < entries.size(); k++) {
        const uint64_t start = std::get<0>(entries[k]);
        const uint64_t end = std::get<1>(entries[k]);
        testing::AssertionResult same =
            sameReads(map, flat, AddrRange(start, end - start));
        if (!same)
            return same;
        if (k + 1 == entries.size())
            break;
        const uint64_t mid = start + (end - start) / 2;
        const uint64_t next_start = std::get<0>(entries[k + 1]);
        const uint64_t next_mid =
            next_start + (std::get<1>(entries[k + 1]) - next_start) / 2;
        same = sameReads(map, flat, AddrRange(mid, next_mid - mid));
        if (!same)
            return same;
    }
    return testing::AssertionSuccess();
}

TEST(IntervalMapChunkedTest, FingerLookupsMatchFlatAfterEveryMutationKind)
{
    // The (chunk, item) finger is the item the last mutation placed;
    // lookups take it only after the two-sided lower-bound test.
    // After each mutation kind below, probes at the last-assigned
    // range take the hit path and probes elsewhere meet a stale
    // finger; both must read exactly what the flat layout reads.
    constexpr uint64_t kSlot = 64;
    constexpr uint64_t kSlots = 1024; // a 64 KiB span, ~8 chunks
    constexpr size_t kHalf = kCap / 2;
    for (uint64_t seed = 1; seed <= 4; seed++) {
        Rng rng(seed * 0x9e3779b9);
        IntervalMap<uint64_t> map;
        bench::FlatIntervalMap<uint64_t> flat;
        uint64_t value = 0;
        auto assign = [&](const AddrRange &r) {
            value++;
            map.assign(r, value);
            flat.assign(r, value);
            return map.validate();
        };
        auto erase = [&](const AddrRange &r) {
            map.erase(r);
            flat.erase(r);
            return map.validate();
        };
        // A known layout: ascending appends split every time the last
        // chunk outgrows kCap, leaving chunks of kHalf, kHalf and
        // kHalf + 1 one-slot entries.
        auto rebuild = [&] {
            map.clear();
            flat.clear();
            for (size_t i = 0; i < kCap + kHalf + 1; i++)
                ASSERT_TRUE(assign(AddrRange(kSlot * i, 32)));
            ASSERT_EQ(map.chunkCount(), 3u);
        };
        // A write round: a random slot-sized write, then probes.
        auto rounds = [&](int count) {
            for (int i = 0; i < count; i++) {
                const uint64_t slot = rng.below(kSlots);
                const AddrRange r(slot * kSlot + rng.below(16),
                                  8 + rng.below(kSlot));
                if (!assign(r))
                    return testing::AssertionFailure() << "invalid";
                testing::AssertionResult same =
                    sameReadsAround(map, flat, r);
                if (!same)
                    return same << " after write round " << i;
            }
            return testing::AssertionSuccess();
        };
        SCOPED_TRACE(testing::Message() << "seed " << seed);

        // Split at capacity: ascending appends fill one chunk to
        // kCap; the next append splits it and the finger follows
        // the new item into the right half.
        for (size_t i = 0; i <= kCap; i++) {
            const AddrRange r(kSlot * i, 32);
            ASSERT_TRUE(assign(r));
            ASSERT_TRUE(sameReadsAround(map, flat, r)) << "append " << i;
        }
        ASSERT_EQ(map.chunkCount(), 2u);
        // Gap inserts on both sides of the split point.
        for (const size_t i : {size_t{3}, kHalf - 1, kHalf + 1,
                               kCap - 2}) {
            const AddrRange r(kSlot * i + 40, 8);
            ASSERT_TRUE(assign(r));
            ASSERT_TRUE(sameReadsAround(map, flat, r));
        }
        ASSERT_TRUE(sameReadsEverywhere(map, flat));
        ASSERT_TRUE(rounds(600));
        ASSERT_GE(map.chunkCount(), 4u);
        ASSERT_TRUE(sameReadsEverywhere(map, flat));

        // Merge: on a known layout, one assign swallows 50 of chunk
        // 1's 64 entries; the chunk falls under the merge threshold
        // and folds into chunk 0, and the finger follows its item.
        rebuild();
        {
            const AddrRange r(kSlot * (kHalf + 10), kSlot * 50);
            ASSERT_TRUE(assign(r));
            ASSERT_EQ(map.chunkCount(), 2u);
            ASSERT_TRUE(sameReadsAround(map, flat, r));
            ASSERT_TRUE(sameReadsEverywhere(map, flat));
            // An erase that carves the last chunk down merges too.
            ASSERT_TRUE(erase(AddrRange(kSlot * (kCap + 5), kSlot * 50)));
            ASSERT_EQ(map.chunkCount(), 1u);
            ASSERT_TRUE(sameReadsAround(map, flat, r));
            ASSERT_TRUE(sameReadsEverywhere(map, flat));
        }
        ASSERT_TRUE(rounds(200));

        // Cross-seam splice: one assign spanning several chunks.
        {
            const AddrRange r(kSlot * rng.below(kSlots / 2) + 20,
                              kSlot * 300);
            ASSERT_TRUE(assign(r));
            ASSERT_TRUE(sameReadsAround(map, flat, r));
            ASSERT_TRUE(sameReadsEverywhere(map, flat));
        }
        ASSERT_TRUE(rounds(200));

        // An erase that empties a chunk: on the known layout, finger
        // the last entry of chunk 0, then erase exactly chunk 0.
        rebuild();
        ASSERT_TRUE(sameReads(map, flat, AddrRange(0, kSlot)));
        {
            const AddrRange last(kSlot * (kHalf - 1), 32);
            ASSERT_TRUE(assign(last)); // finger into chunk 0
            ASSERT_TRUE(erase(AddrRange(0, kSlot * kHalf - 16)));
            ASSERT_EQ(map.chunkCount(), 2u);
            ASSERT_TRUE(sameReadsAround(map, flat, last));
            ASSERT_TRUE(
                sameReadsAround(map, flat, AddrRange(kSlot * kCap, 32)));
            ASSERT_TRUE(sameReadsEverywhere(map, flat));
        }
        ASSERT_TRUE(rounds(200));

        // clear(): the finger outlives the entries it indexed.
        {
            const AddrRange r(kSlot * 7, 32);
            ASSERT_TRUE(assign(r));
            map.clear();
            flat.clear();
            ASSERT_TRUE(sameReadsAround(map, flat, r));
            ASSERT_TRUE(assign(AddrRange(kSlot * 900, 16)));
            ASSERT_TRUE(sameReadsAround(map, flat, r));
            ASSERT_TRUE(
                sameReadsAround(map, flat, AddrRange(kSlot * 900, 16)));
        }
        ASSERT_TRUE(rounds(400));

        // assignBatch gap runs: sorted writes into the gaps between
        // stored slots, plus a tail past the last chunk (appendRun).
        for (int b = 0; b < 20; b++) {
            std::vector<AddrRange> batch;
            uint64_t slot = rng.below(64);
            while (slot < kSlots + 64) {
                batch.emplace_back(kSlot * slot + 48, 8);
                slot += 1 + rng.below(12);
            }
            value++;
            map.assignBatch(batch.data(), batch.size(), value);
            for (const AddrRange &r : batch)
                flat.assign(r, value);
            ASSERT_TRUE(map.validate());
            ASSERT_TRUE(sameReadsAround(map, flat, batch.back()));
            ASSERT_TRUE(sameReadsAround(map, flat, batch.front()));
            ASSERT_TRUE(rounds(20));
        }
        ASSERT_TRUE(sameReadsEverywhere(map, flat));
    }
}

} // namespace
} // namespace pmtest::core
