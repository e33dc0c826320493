#include "core/shadow_memory.hh"

#include <algorithm>

namespace pmtest::core
{

void
ShadowMemory::recordWrite(const AddrRange &range)
{
    RangeStatus status;
    status.hasPersist = true;
    status.persist = Interval::open(timestamp_);
    map_.assign(range, status);
    if (trackOpenWrites_)
        openWrites_.assign(range, 1);
}

void
ShadowMemory::recordWriteBatch(const AddrRange *ranges, size_t n)
{
    if (n == 0)
        return;
    if (n == 1) {
        recordWrite(ranges[0]);
        return;
    }
    RangeStatus status;
    status.hasPersist = true;
    status.persist = Interval::open(timestamp_);
    map_.assignBatch(ranges, n, status);
    if (trackOpenWrites_)
        openWrites_.assignBatch(ranges, n, uint8_t{1});
}

ClwbScan
ShadowMemory::recordClwb(const AddrRange &range)
{
    ClwbScan scan;
    bool any_persist = false;
    bool any_open_persist = false;

    // Open a flush interval over the range while preserving persist
    // intervals. Subranges with no prior status get a flush-only entry
    // so double flushes of unmodified data are still detectable. The
    // result equals assigning each clipped entry and each gap its
    // flushed status; an entry the range covers whole is updated in
    // place, which stores exactly what that assign would.
    const Interval flush = Interval::open(timestamp_);
    RangeStatus gap;
    gap.hasFlush = true;
    gap.flush = flush;
    carve_.clear();
    uint64_t pos = range.addr;
    map_.forEachOverlapMut(range, [&](uint64_t start, uint64_t end,
                                      RangeStatus &s) {
        if (s.hasFlush && s.flush.isOpen())
            scan.redundant = true;
        if (s.hasPersist) {
            any_persist = true;
            any_open_persist |= s.persist.isOpen();
        }
        if (start > pos)
            carve_.emplace_back(AddrRange(pos, start - pos), gap);
        if (start < range.addr || end > range.end()) {
            const uint64_t lo = std::max(start, range.addr);
            const uint64_t hi = std::min(end, range.end());
            RangeStatus part = s;
            part.hasFlush = true;
            part.flush = flush;
            carve_.emplace_back(AddrRange(lo, hi - lo), part);
        } else {
            s.hasFlush = true;
            s.flush = flush;
        }
        pos = std::min(end, range.end());
    });
    if (pos < range.end())
        carve_.emplace_back(AddrRange(pos, range.end() - pos), gap);
    for (const auto &[r, s] : carve_)
        map_.assign(r, s);

    pendingFlushes_.assign(range, 1);
    scan.unmodified = !any_persist;
    scan.alreadyClean = any_persist && !any_open_persist;
    return scan;
}

void
ShadowMemory::completePendingFlushes()
{
    // The pending set is sorted and disjoint by map invariant, so the
    // whole completion is one monotone batched walk over map_ rather
    // than a binary search per pending entry. An entry spanning two
    // pending ranges is revisited, exactly as the per-entry walk did;
    // the open-flush guard makes the second visit a no-op either way.
    scratch_.clear();
    pendingFlushes_.forEach([&](const auto &pending) {
        scratch_.push_back(
            AddrRange(pending.start, pending.end - pending.start));
    });
    map_.forEachOverlapBatchMut(
        scratch_.data(), scratch_.size(),
        [&](size_t, uint64_t, uint64_t, RangeStatus &s) {
            if (!s.hasFlush || !s.flush.isOpen())
                return; // a later write invalidated this flush
            s.flush.close(timestamp_);
            if (s.hasPersist)
                s.persist.close(timestamp_);
        });
    pendingFlushes_.clear();
}

void
ShadowMemory::completeAllWrites()
{
    scratch_.clear();
    openWrites_.forEach([&](const auto &open) {
        scratch_.push_back(
            AddrRange(open.start, open.end - open.start));
    });
    map_.forEachOverlapBatchMut(
        scratch_.data(), scratch_.size(),
        [&](size_t, uint64_t, uint64_t, RangeStatus &s) {
            if (s.hasPersist)
                s.persist.close(timestamp_);
        });
    openWrites_.clear();
}

bool
ShadowMemory::allPersisted(const AddrRange &range,
                           AddrRange *first_open) const
{
    bool ok = true;
    map_.forEachOverlap(range, [&](const auto &entry) {
        if (!ok)
            return;
        const RangeStatus &s = entry.value;
        if (s.hasPersist && !s.persist.closedBy(timestamp_)) {
            ok = false;
            if (first_open) {
                *first_open =
                    AddrRange(entry.start, entry.end - entry.start);
            }
        }
    });
    return ok;
}

AddrRange
ShadowMemory::unflushedSpan(const AddrRange &range) const
{
    uint64_t lo = 0, hi = 0;
    bool found = false;
    map_.forEachOverlap(range, [&](const auto &entry) {
        const RangeStatus &s = entry.value;
        if (!s.hasPersist || !s.persist.isOpen())
            return;
        if (s.hasFlush && s.flush.isOpen())
            return; // writeback already in flight; a fence closes it
        const uint64_t start = std::max(entry.start, range.addr);
        const uint64_t end = std::min(entry.end, range.end());
        if (!found) {
            lo = start;
            hi = end;
            found = true;
        } else {
            lo = std::min(lo, start);
            hi = std::max(hi, end);
        }
    });
    return found ? AddrRange(lo, hi - lo) : AddrRange();
}

bool
ShadowMemory::anyWrite(const AddrRange &range) const
{
    bool found = false;
    map_.forEachOverlap(range, [&](const auto &entry) {
        if (entry.value.hasPersist)
            found = true;
    });
    return found;
}

} // namespace pmtest::core
