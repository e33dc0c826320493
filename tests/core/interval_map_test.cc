#include "core/interval_map.hh"

#include <gtest/gtest.h>

#include <map>

#include "util/random.hh"

namespace pmtest::core
{
namespace
{

TEST(IntervalMapTest, AssignAndQuery)
{
    IntervalMap<int> m;
    m.assign(AddrRange(10, 10), 1);
    EXPECT_TRUE(m.anyOverlap(AddrRange(15, 1)));
    EXPECT_FALSE(m.anyOverlap(AddrRange(20, 5)));
    EXPECT_FALSE(m.anyOverlap(AddrRange(0, 10)));
    EXPECT_EQ(m.size(), 1u);
}

TEST(IntervalMapTest, OverwriteSplitsBoundaries)
{
    IntervalMap<int> m;
    m.assign(AddrRange(0, 30), 1);
    m.assign(AddrRange(10, 10), 2);

    std::vector<std::tuple<uint64_t, uint64_t, int>> entries;
    m.forEach([&](const auto &e) {
        entries.emplace_back(e.start, e.end, e.value);
    });
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0], std::make_tuple(0u, 10u, 1));
    EXPECT_EQ(entries[1], std::make_tuple(10u, 20u, 2));
    EXPECT_EQ(entries[2], std::make_tuple(20u, 30u, 1));
}

TEST(IntervalMapTest, EraseLeavesRemainders)
{
    IntervalMap<int> m;
    m.assign(AddrRange(0, 100), 7);
    m.erase(AddrRange(40, 20));
    EXPECT_TRUE(m.anyOverlap(AddrRange(0, 40)));
    EXPECT_FALSE(m.anyOverlap(AddrRange(40, 20)));
    EXPECT_TRUE(m.anyOverlap(AddrRange(60, 40)));
}

TEST(IntervalMapTest, ForEachOverlapClips)
{
    IntervalMap<int> m;
    m.assign(AddrRange(0, 100), 1);
    m.forEachOverlap(AddrRange(30, 10), [](const auto &e) {
        EXPECT_EQ(e.start, 30u);
        EXPECT_EQ(e.end, 40u);
    });
}

TEST(IntervalMapTest, CoversDetectsGaps)
{
    IntervalMap<int> m;
    m.assign(AddrRange(0, 10), 1);
    m.assign(AddrRange(10, 10), 2);
    m.assign(AddrRange(25, 10), 3);
    EXPECT_TRUE(m.covers(AddrRange(0, 20)));
    EXPECT_TRUE(m.covers(AddrRange(5, 10)));
    EXPECT_FALSE(m.covers(AddrRange(0, 30)));
    EXPECT_FALSE(m.covers(AddrRange(18, 10)));
    EXPECT_TRUE(m.covers(AddrRange(7, 0))); // empty is covered
}

TEST(IntervalMapTest, EmptyMapCoversOnlyEmptyRanges)
{
    // The TX log starts every transaction empty, and clear() must
    // return it there.
    IntervalMap<bool> m;
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.anyOverlap(AddrRange(0, 100)));
    EXPECT_FALSE(m.covers(AddrRange(0, 1)));
    EXPECT_TRUE(m.covers(AddrRange(0, 0)));
    m.assign(AddrRange(0, 10), true);
    EXPECT_TRUE(m.covers(AddrRange(0, 10)));
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.covers(AddrRange(0, 1)));
}

TEST(IntervalMapTest, MutableIteration)
{
    IntervalMap<int> m;
    m.assign(AddrRange(0, 10), 1);
    m.assign(AddrRange(10, 10), 2);
    m.forEachOverlapMut(AddrRange(0, 20),
                        [](uint64_t, uint64_t, int &v) { v *= 10; });
    m.forEachOverlap(AddrRange(0, 20), [](const auto &e) {
        EXPECT_EQ(e.value % 10, 0);
    });
}

/** Reference model: byte-granular map. */
class IntervalMapModelTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(IntervalMapModelTest, MatchesByteGranularReference)
{
    Rng rng(GetParam());
    IntervalMap<int> m;
    std::map<uint64_t, int> reference; // byte -> value

    for (int step = 0; step < 300; step++) {
        const uint64_t start = rng.below(256);
        const uint64_t size = 1 + rng.below(32);
        if (rng.chance(3, 4)) {
            const int value = static_cast<int>(rng.below(100));
            m.assign(AddrRange(start, size), value);
            for (uint64_t a = start; a < start + size; a++)
                reference[a] = value;
        } else {
            m.erase(AddrRange(start, size));
            for (uint64_t a = start; a < start + size; a++)
                reference.erase(a);
        }

        // Validate with random probes.
        for (int probe = 0; probe < 5; probe++) {
            const uint64_t p_start = rng.below(280);
            const uint64_t p_size = 1 + rng.below(16);

            std::map<uint64_t, int> got;
            m.forEachOverlap(
                AddrRange(p_start, p_size), [&](const auto &e) {
                    for (uint64_t a = e.start; a < e.end; a++)
                        got[a] = e.value;
                });

            std::map<uint64_t, int> expect;
            for (uint64_t a = p_start; a < p_start + p_size; a++) {
                auto it = reference.find(a);
                if (it != reference.end())
                    expect[a] = it->second;
            }
            ASSERT_EQ(got, expect) << "step " << step;

            const bool covers =
                m.covers(AddrRange(p_start, p_size));
            EXPECT_EQ(covers, expect.size() == p_size);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalMapModelTest,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace pmtest::core
