/**
 * @file
 * Differential test of the shadow memory's one-walk writeback and
 * allocation-free ordering rules. A test-local reference keeps the
 * original multi-pass algorithms — scan the clwb range, collect every
 * clipped entry and gap, then assign each one; collect the persist
 * intervals of both ordering ranges into vectors and fold them — and
 * random write / writeback / sfence / dfence sequences over 16 cache
 * lines (partial and line-straddling ranges) must leave both with the
 * same ClwbScan after every writeback, the same full entry list
 * (bounds and RangeStatus) after every op, and the same ordering
 * verdicts and messages. The reference stores its entries in the
 * retired flat layout (bench::FlatIntervalMap), so the chunked map's
 * lookups are checked too; a sparse-round stream over a wide span —
 * hundreds of entries across many chunks, each round's write,
 * writeback, fence and check probing the range just written — covers
 * the map's cached finger on both its hit and its stale path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hops_model.hh"
#include "core/persistency_model.hh"
#include "core/shadow_memory.hh"
#include "core/x86_model.hh"
#include "bench/flat_interval_map.hh"
#include "util/random.hh"

namespace pmtest::core
{
namespace
{

/** One stored entry, comparable: bounds plus the whole RangeStatus. */
using EntryRow =
    std::tuple<uint64_t, uint64_t, bool, Epoch, Epoch, bool, Epoch, Epoch>;

EntryRow
row(uint64_t start, uint64_t end, const RangeStatus &s)
{
    return {start,        end,          s.hasPersist, s.persist.begin,
            s.persist.end, s.hasFlush, s.flush.begin, s.flush.end};
}

/**
 * The reference shadow: the scan → collect → assign writeback and the
 * vector-collecting ordering fold, over its own interval maps.
 */
class RefShadow
{
  public:
    void
    write(const AddrRange &range)
    {
        RangeStatus s;
        s.hasPersist = true;
        s.persist = Interval::open(timestamp_);
        map_.assign(range, s);
        openWrites_.assign(range, 1);
    }

    ClwbScan
    clwb(const AddrRange &range)
    {
        ClwbScan scan;
        bool any_persist = false;
        bool any_open_persist = false;
        bool any_pending_new_data = false;
        map_.forEachOverlap(range, [&](const auto &entry) {
            const RangeStatus &s = entry.value;
            if (s.hasFlush && s.flush.isOpen())
                scan.redundant = true;
            if (s.hasPersist) {
                any_persist = true;
                if (s.persist.isOpen()) {
                    any_open_persist = true;
                    if (!s.hasFlush || !s.flush.isOpen())
                        any_pending_new_data = true;
                }
            }
        });
        scan.unmodified = !any_persist;
        scan.alreadyClean =
            any_persist && !any_open_persist && !any_pending_new_data;

        std::vector<std::pair<AddrRange, RangeStatus>> updated;
        RangeStatus gap;
        gap.hasFlush = true;
        gap.flush = Interval::open(timestamp_);
        uint64_t pos = range.addr;
        map_.forEachOverlap(range, [&](const auto &entry) {
            if (entry.start > pos)
                updated.emplace_back(AddrRange(pos, entry.start - pos),
                                     gap);
            RangeStatus s = entry.value;
            s.hasFlush = true;
            s.flush = Interval::open(timestamp_);
            updated.emplace_back(
                AddrRange(entry.start, entry.end - entry.start), s);
            pos = entry.end;
        });
        if (pos < range.end())
            updated.emplace_back(AddrRange(pos, range.end() - pos), gap);
        for (const auto &[r, s] : updated)
            map_.assign(r, s);
        pending_.push_back(range);
        return scan;
    }

    void
    sfence()
    {
        timestamp_++;
        for (const AddrRange &r : pending_) {
            map_.forEachOverlapMut(
                r, [&](uint64_t, uint64_t, RangeStatus &s) {
                    if (!s.hasFlush || !s.flush.isOpen())
                        return;
                    s.flush.close(timestamp_);
                    if (s.hasPersist)
                        s.persist.close(timestamp_);
                });
        }
        pending_.clear();
    }

    void
    dfence()
    {
        timestamp_++;
        openWrites_.forEach([&](const auto &open) {
            map_.forEachOverlapMut(
                AddrRange(open.start, open.end - open.start),
                [&](uint64_t, uint64_t, RangeStatus &s) {
                    if (s.hasPersist)
                        s.persist.close(timestamp_);
                });
        });
        openWrites_.clear();
    }

    /** The isPersist rule, reporting the first still-open entry. */
    bool
    allPersisted(const AddrRange &range, AddrRange *first_open) const
    {
        for (const auto &[r, ival] : persistIntervals(range)) {
            if (!ival.closedBy(timestamp_)) {
                *first_open = r;
                return false;
            }
        }
        return true;
    }

    std::vector<std::pair<AddrRange, Interval>>
    persistIntervals(const AddrRange &range) const
    {
        std::vector<std::pair<AddrRange, Interval>> out;
        map_.forEachOverlap(range, [&](const auto &entry) {
            if (entry.value.hasPersist)
                out.emplace_back(
                    AddrRange(entry.start, entry.end - entry.start),
                    entry.value.persist);
        });
        return out;
    }

    /** The strict (x86/ARM) rule, or the HOPS rule when @p hops. */
    bool
    orderedBefore(const AddrRange &a, const AddrRange &b, bool hops,
                  std::string *why) const
    {
        const auto a_ivals = persistIntervals(a);
        const auto b_ivals = persistIntervals(b);
        if (a_ivals.empty() || b_ivals.empty())
            return true;
        Epoch a_max = 0;
        AddrRange a_worst;
        for (const auto &[range, ival] : a_ivals) {
            const Epoch e = hops ? ival.begin : ival.end;
            if (e >= a_max) {
                a_max = e;
                a_worst = range;
            }
        }
        Epoch b_min = kInfEpoch;
        AddrRange b_worst;
        for (const auto &[range, ival] : b_ivals) {
            if (ival.begin <= b_min) {
                b_min = ival.begin;
                b_worst = range;
            }
        }
        if (hops ? a_max < b_min : a_max <= b_min)
            return true;
        if (hops) {
            *why = "write to " + a_worst.str() + " (epoch " +
                   std::to_string(a_max) +
                   ") is not separated by a fence from write to " +
                   b_worst.str() + " (epoch " + std::to_string(b_min) +
                   ")";
        } else {
            *why = "persist interval of " + a_worst.str() + " (ends " +
                   (a_max == kInfEpoch ? std::string("never")
                                       : std::to_string(a_max)) +
                   ") is not guaranteed before that of " +
                   b_worst.str() + " (may begin at epoch " +
                   std::to_string(b_min) + ")";
        }
        return false;
    }

    std::vector<EntryRow>
    rows() const
    {
        std::vector<EntryRow> out;
        map_.forEach([&](const auto &e) {
            out.push_back(row(e.start, e.end, e.value));
        });
        return out;
    }

    size_t openWriteCount() const { return openWrites_.size(); }

  private:
    Epoch timestamp_ = 0;
    bench::FlatIntervalMap<RangeStatus> map_;
    bench::FlatIntervalMap<uint8_t> openWrites_;
    std::vector<AddrRange> pending_;
};

std::vector<EntryRow>
rows(const ShadowMemory &shadow)
{
    std::vector<EntryRow> out;
    shadow.forEach([&](const auto &e) {
        out.push_back(row(e.start, e.end, e.value));
    });
    return out;
}

/** The message a finding built from @p verdict renders. */
std::string
rendered(const RuleVerdict &verdict)
{
    Finding f;
    f.kind = causeKind(verdict.cause);
    f.cause = verdict.cause;
    f.evidence = verdict.evidence;
    return findingMessage(f);
}

/**
 * A range over the 16-line (1 KiB) window: whole lines, sub-line
 * pieces at odd offsets, and ranges straddling one or more line
 * boundaries.
 */
AddrRange
randomRange(Rng &rng)
{
    const uint64_t line = 64 * rng.below(16);
    switch (rng.below(4)) {
      case 0:
        return AddrRange(line, 64);
      case 1:
        return AddrRange(line + 8 * rng.below(8), 8 + 8 * rng.below(4));
      case 2:
        return AddrRange(line + 32 + rng.below(24),
                         48 + rng.below(100)); // straddles
      default:
        return AddrRange(line, 64 * (1 + rng.below(3)));
    }
}

bool
sameScan(const ClwbScan &a, const ClwbScan &b)
{
    return a.redundant == b.redundant && a.unmodified == b.unmodified &&
           a.alreadyClean == b.alreadyClean;
}

/**
 * Run @p n random ops against both shadows, comparing after each op.
 * @p dfence adds the HOPS dfence to the mix (the shadow then tracks
 * open writes, as an engine running HOPS configures it).
 */
void
runDifferential(uint64_t seed, size_t n, bool dfence)
{
    Rng rng(seed);
    ShadowMemory shadow;
    shadow.setTrackOpenWrites(dfence);
    RefShadow ref;
    const X86Model strict;
    const HopsModel hops;
    for (size_t i = 0; i < n; i++) {
        const AddrRange range = randomRange(rng);
        const uint64_t dice = rng.below(dfence ? 20 : 17);
        if (dice < 7) {
            shadow.recordWrite(range);
            ref.write(range);
        } else if (dice < 13) {
            const ClwbScan got = shadow.recordClwb(range);
            const ClwbScan want = ref.clwb(range);
            ASSERT_TRUE(sameScan(got, want))
                << "seed " << seed << " op " << i << " clwb "
                << range.str();
        } else if (dice < 15) {
            shadow.bumpTimestamp();
            shadow.completePendingFlushes();
            ref.sfence();
        } else if (dice < 17) {
            const AddrRange b = randomRange(rng);
            for (const bool h : {false, true}) {
                const PersistencyModel &model =
                    h ? static_cast<const PersistencyModel &>(hops)
                      : strict;
                std::string want_why;
                const RuleVerdict got =
                    model.checkOrderedBefore(range, b, shadow);
                const bool want =
                    ref.orderedBefore(range, b, h, &want_why);
                ASSERT_EQ(got.holds, want)
                    << "seed " << seed << " op " << i;
                if (!got) {
                    ASSERT_EQ(rendered(got), want_why);
                }
            }
        } else {
            shadow.bumpTimestamp();
            shadow.completeAllWrites();
            ref.dfence();
        }
        ASSERT_EQ(rows(shadow), ref.rows())
            << "seed " << seed << " op " << i;
        ASSERT_EQ(shadow.openWriteCount(),
                  dfence ? ref.openWriteCount() : 0u);
    }
}

TEST(ShadowMemoryDiffTest, WritebackAndOrderingMatchReferenceX86)
{
    for (uint64_t seed = 1; seed <= 200; seed++)
        runDifferential(seed, 300, false);
}

TEST(ShadowMemoryDiffTest, WritebackAndDfenceMatchReferenceHops)
{
    for (uint64_t seed = 1; seed <= 200; seed++)
        runDifferential(seed, 300, true);
}

TEST(ShadowMemoryDiffTest, WritebackTilingExactEntriesKeepsBounds)
{
    // The workload shape: write then writeback of the same lines. The
    // entries tile the range, so the flush opens in place and the
    // entry list is exactly the written ranges.
    ShadowMemory shadow;
    RefShadow ref;
    for (uint64_t line = 0; line < 16; line++) {
        shadow.recordWrite(AddrRange(64 * line, 32));
        shadow.recordWrite(AddrRange(64 * line + 32, 32));
        ref.write(AddrRange(64 * line, 32));
        ref.write(AddrRange(64 * line + 32, 32));
    }
    const ClwbScan scan = shadow.recordClwb(AddrRange(0, 1024));
    EXPECT_TRUE(sameScan(scan, ref.clwb(AddrRange(0, 1024))));
    EXPECT_FALSE(scan.any());
    EXPECT_EQ(shadow.entryCount(), 32u);
    EXPECT_EQ(rows(shadow), ref.rows());
}

/**
 * The sparse-round shape (the offline_large_sparse workload): each
 * round writes a random 64-byte slot of a 256 KiB span — whole, a
 * piece of it, or straddling two slots — writes it back, fences and
 * checks that it persisted; every fourth round also writes a second
 * slot and checks the two are ordered. One round in eight drops its
 * writeback and one in eight its fence, so checks fail too. The span
 * leaves hundreds of live entries across many chunks. Every op's
 * scan and verdict is compared, and the full entry lists every eighth
 * round and at the end.
 */
void
runSparseRounds(uint64_t seed, size_t rounds)
{
    constexpr uint64_t kSlots = 4096;
    Rng rng(seed);
    ShadowMemory shadow;
    shadow.setTrackOpenWrites(false);
    RefShadow ref;
    const X86Model strict;
    const HopsModel hops;
    auto slotRange = [&] {
        const uint64_t slot = 64 * rng.below(kSlots);
        switch (rng.below(3)) {
          case 0:
            return AddrRange(slot, 64);
          case 1:
            return AddrRange(slot + 8 * rng.below(6), 8 + 8 * rng.below(2));
          default:
            return AddrRange(slot + 32, 64);
        }
    };
    for (size_t round = 0; round < rounds; round++) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " round " << round);
        const AddrRange a = slotRange();
        AddrRange b = round % 4 == 3 ? slotRange() : AddrRange();
        if (b.overlaps(a))
            b = AddrRange();
        for (const AddrRange &w : {a, b}) {
            if (w.empty())
                continue;
            shadow.recordWrite(w);
            ref.write(w);
        }
        if (rng.below(8) != 0)
            ASSERT_TRUE(sameScan(shadow.recordClwb(a), ref.clwb(a)));
        if (rng.below(8) != 0) {
            shadow.bumpTimestamp();
            shadow.completePendingFlushes();
            ref.sfence();
        }
        if (!b.empty()) {
            ASSERT_TRUE(sameScan(shadow.recordClwb(b), ref.clwb(b)));
            shadow.bumpTimestamp();
            shadow.completePendingFlushes();
            ref.sfence();
            for (const bool h : {false, true}) {
                const PersistencyModel &model =
                    h ? static_cast<const PersistencyModel &>(hops)
                      : strict;
                std::string want_why;
                const RuleVerdict got =
                    model.checkOrderedBefore(a, b, shadow);
                const bool want = ref.orderedBefore(a, b, h, &want_why);
                ASSERT_EQ(got.holds, want);
                if (!got) {
                    ASSERT_EQ(rendered(got), want_why);
                }
            }
        }
        AddrRange got_open, want_open;
        const bool got = shadow.allPersisted(a, &got_open);
        ASSERT_EQ(got, ref.allPersisted(a, &want_open)) << a.str();
        if (!got) {
            ASSERT_EQ(got_open.addr, want_open.addr);
            ASSERT_EQ(got_open.size, want_open.size);
        }
        if (round % 8 == 0) {
            ASSERT_EQ(rows(shadow), ref.rows());
        }
    }
    ASSERT_EQ(rows(shadow), ref.rows());
    ASSERT_GT(shadow.entryCount(),
              4 * IntervalMap<RangeStatus>::kChunkCapacity);
}

TEST(ShadowMemoryDiffTest, SparseRoundsAcrossManyChunksMatchReference)
{
    for (uint64_t seed = 1; seed <= 4; seed++)
        runSparseRounds(seed, 2500);
}

/**
 * Random write / writeback / fence ops of a strict model, applied
 * through the model to a shadow configured as the engine does it.
 */
size_t
openWritesAfterStrictTrace(ModelKind kind, uint64_t seed)
{
    const auto model = makeModel(kind);
    const bool arm = kind == ModelKind::Arm;
    ShadowMemory shadow;
    shadow.setTrackOpenWrites(model->tracksOpenWrites());
    Report report;
    Rng rng(seed);
    for (size_t i = 0; i < 500; i++) {
        const AddrRange r = randomRange(rng);
        PmOp op = PmOp::write(r.addr, r.size);
        switch (rng.below(3)) {
          case 0:
            break;
          case 1:
            op.type = arm ? OpType::DcCvap : OpType::Clwb;
            break;
          default:
            op = PmOp{arm ? OpType::Dsb : OpType::Sfence, 0, 0, 0, 0, {}};
        }
        model->apply(op, shadow, report, i);
    }
    EXPECT_EQ(report.failCount(), 0u);
    return shadow.openWriteCount();
}

TEST(ShadowMemoryDiffTest, OnlyTheDfenceModelTracksOpenWrites)
{
    EXPECT_FALSE(makeModel(ModelKind::X86)->tracksOpenWrites());
    EXPECT_FALSE(makeModel(ModelKind::Arm)->tracksOpenWrites());
    EXPECT_TRUE(makeModel(ModelKind::Hops)->tracksOpenWrites());
    for (uint64_t seed = 1; seed <= 20; seed++) {
        EXPECT_EQ(openWritesAfterStrictTrace(ModelKind::X86, seed), 0u);
        EXPECT_EQ(openWritesAfterStrictTrace(ModelKind::Arm, seed), 0u);
    }
}

} // namespace
} // namespace pmtest::core
