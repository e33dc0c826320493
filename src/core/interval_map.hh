/**
 * @file
 * IntervalMap: an ordered map from disjoint address ranges to values,
 * with range assignment, range erase, overlap iteration and batched
 * variants of both — the shadow-memory container (paper §4.4: "it
 * maintains the shadow memory as an interval tree ... update and
 * lookup have complexity O(log n)"). Assigning over existing ranges
 * splits them so that the untouched parts keep their old values.
 *
 * Storage is a chunked sorted vector — an ordered sequence of small
 * fixed-capacity sorted runs (a shallow B-tree with implicit root):
 * locating a range binary-searches the chunk summaries (cached
 * lo/hi bounds, contiguous in memory) and then one small run, so
 * lookups keep the flat layout's cache behavior, while mutation
 * splices within a single chunk — O(chunk), not O(n). That caps the
 * cost of the sparse adversarial shapes (thousands of live entries)
 * that made a single flat vector quadratic, without paying std::map's
 * per-entry heap node and pointer chase on the small maps engine
 * traces produce (see bench_ablation_shadow and the storage sections
 * of bench_kernel; the previous flat layout is preserved in
 * bench/flat_interval_map.hh).
 *
 * Retired chunk buffers park on an internal free-list, and clear()
 * recycles every chunk there, so a reused map (one shadow memory per
 * engine worker) stops allocating entirely in steady state.
 *
 * Lookups start at a cached (chunk, item) finger: the chunk and item
 * index of the item the last mutation placed. A persist protocol's
 * ops arrive together — the write, its writeback, the fence and the
 * checker all probe the range the write just assigned — so each of
 * them finds its chunk and item in O(1) instead of two binary
 * searches. The finger is validated before use: the chunk hint must
 * be the first chunk with hi > addr, and item f is taken only when
 * items[f].end > addr and (f == 0 or items[f - 1].end <= addr), which
 * is exactly the lower bound; a stale finger (after an erase, a
 * clear() or a probe elsewhere) fails the test and falls back to the
 * binary search. Const accessors read the finger but never write it,
 * so concurrent readers stay race-free.
 */

#ifndef PMTEST_CORE_INTERVAL_MAP_HH
#define PMTEST_CORE_INTERVAL_MAP_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/interval.hh"

namespace pmtest::core
{

/**
 * Map from disjoint half-open ranges [start, end) to values of type V.
 *
 * All mutating operations keep the invariant that stored ranges never
 * overlap (and therefore both starts and ends are strictly
 * increasing). Adjacent equal values are not merged automatically:
 * callers never rely on merging, splitting history can be useful when
 * debugging, and — decisively — stored entry bounds leak into finding
 * messages, so the fragmentation produced by a given op sequence is
 * part of the engine's observable, deterministic behavior. The batch
 * operations preserve exactly that fragmentation (see assignBatch).
 */
template <typename V>
class IntervalMap
{
  public:
    /**
     * Entries per chunk before it splits. Sized so the small hot
     * working sets engine traces produce (a few KiB of shadow state,
     * ~100 live entries) stay in one chunk — where the layout is
     * exactly the flat vector — while sparse populations split into
     * O(chunk)-splice runs.
     */
    static constexpr size_t kChunkCapacity = 128;
    /** A chunk smaller than this tries to merge with a neighbor. */
    static constexpr size_t kMergeThreshold = 24;
    /**
     * Merges only happen when the combined chunk stays at or below
     * this; the gap to kChunkCapacity is hysteresis so an
     * assign/erase flip-flop at a seam cannot thrash split+merge.
     */
    static constexpr size_t kMergeLimit = 96;

    /**
     * One visited entry: [start, end) -> value. The value is a
     * reference into the map (valid for the duration of the callback
     * only): overlap iteration is the engine's hottest path, and
     * payloads like RangeStatus must not be copied per visit.
     */
    struct Entry
    {
        uint64_t start;
        uint64_t end;
        const V &value;
    };

    /**
     * Assign @p value to [range.addr, range.end()).
     *
     * Fused carve-and-insert within a chunk: when the assignment
     * replaces at least one fully-covered stored item (the engine's
     * hot path is re-writing an already-tracked range), the new item
     * overwrites that slot in place and only the surplus items are
     * spliced out — an exact re-assignment touches no other element.
     */
    void
    assign(const AddrRange &range, V value)
    {
        if (range.empty())
            return;
        if (chunks_.empty()) {
            insertChunk(0,
                        Item{range.addr, range.end(), std::move(value)});
            hint_ = 0;
            finger_ = 0;
            return;
        }
        size_t ci = chunkLowerBound(range.addr);
        if (ci == chunks_.size()) {
            // Starts at or past the last chunk's end: append there.
            ci = chunks_.size() - 1;
            Chunk &c = chunks_[ci];
            c.items.push_back(
                Item{range.addr, range.end(), std::move(value)});
            c.hi = range.end();
            hint_ = ci;
            finger_ = c.items.size() - 1;
            maybeSplit(ci);
            return;
        }
        hint_ = ci;
        if (ci + 1 == chunks_.size() ||
            chunks_[ci + 1].lo >= range.end()) {
            assignWithin(ci, range, std::move(value));
            return;
        }
        spliceAcross(ci, range, &value);
    }

    /**
     * Batched assign: @p value is assigned to each of the @p n ranges.
     *
     * REQUIRES: ranges sorted by addr and pairwise disjoint. Because
     * disjoint same-value assignments commute, the stored
     * fragmentation is byte-identical to n individual assign() calls
     * in the caller's original order — the batch only amortizes the
     * per-op binary search and splice. Runs of ranges that land in the
     * same inter-item gap (the sparse-workload pattern) become one
     * multi-element splice.
     */
    void
    assignBatch(const AddrRange *ranges, size_t n, const V &value)
    {
        size_t i = 0;
        while (i < n) {
            const AddrRange &r = ranges[i];
            if (r.empty()) {
                i++;
                continue;
            }
            const size_t ci = chunkLowerBound(r.addr);
            if (ci == chunks_.size()) {
                i = appendRun(ranges, i, n, value);
                continue;
            }
            const Chunk &c = chunks_[ci];
            const size_t idx = itemLowerBound(ci, r.addr);
            if ((idx < c.items.size() &&
                 c.items[idx].start < r.end()) ||
                (ci + 1 < chunks_.size() &&
                 chunks_[ci + 1].lo < r.end())) {
                // Overlaps stored items (possibly across a seam):
                // the single-op path already handles every carve
                // case, and the hint keeps it O(chunk).
                assign(r, value);
                i++;
                continue;
            }
            i = gapInsertRun(ci, idx, ranges, i, n, value);
        }
    }

    /** Remove any values within the range. */
    void
    erase(const AddrRange &range)
    {
        if (range.empty() || chunks_.empty())
            return;
        const size_t ci = chunkLowerBound(range.addr);
        if (ci == chunks_.size())
            return;
        hint_ = ci;
        if (ci + 1 == chunks_.size() ||
            chunks_[ci + 1].lo >= range.end())
            eraseWithin(ci, range);
        else
            spliceAcross(ci, range, nullptr);
    }

    /** Remove everything; chunk storage is retained for reuse. */
    void
    clear()
    {
        for (Chunk &c : chunks_)
            recycle(std::move(c.items));
        chunks_.clear();
        hint_ = 0;
        finger_ = 0;
    }

    /**
     * Invoke @p fn for every stored entry overlapping @p range, in
     * address order. The entry passed is clipped to the overlap.
     * Templated on the callable: this is the engine's hottest path.
     */
    template <typename Fn>
    void
    forEachOverlap(const AddrRange &range, Fn &&fn) const
    {
        if (range.empty())
            return;
        const size_t first = chunkLowerBound(range.addr);
        for (size_t ci = first; ci < chunks_.size(); ci++) {
            const Chunk &c = chunks_[ci];
            if (c.lo >= range.end())
                break;
            size_t i = ci == first ? itemLowerBound(ci, range.addr) : 0;
            for (; i < c.items.size() && c.items[i].start < range.end();
                 i++) {
                const Item &item = c.items[i];
                fn(Entry{std::max(item.start, range.addr),
                         std::min(item.end, range.end()), item.value});
            }
        }
    }

    /**
     * Mutable overlap iteration: @p fn receives the value by reference
     * (the entry bounds are the stored, unclipped bounds). @p fn must
     * not mutate the map's structure.
     */
    template <typename Fn>
    void
    forEachOverlapMut(const AddrRange &range, Fn &&fn)
    {
        if (range.empty())
            return;
        const size_t first = chunkLowerBound(range.addr);
        for (size_t ci = first; ci < chunks_.size(); ci++) {
            Chunk &c = chunks_[ci];
            if (c.lo >= range.end())
                break;
            size_t i = ci == first ? itemLowerBound(ci, range.addr) : 0;
            for (; i < c.items.size() && c.items[i].start < range.end();
                 i++)
                fn(c.items[i].start, c.items[i].end, c.items[i].value);
        }
    }

    /**
     * Batched overlap iteration: one monotone walk visits, for each
     * range in turn, every stored entry overlapping it (clipped), as
     * fn(range_index, Entry). REQUIRES: ranges sorted by addr and
     * pairwise disjoint. Equivalent to n forEachOverlap calls but the
     * cursor never re-searches from the root.
     */
    template <typename Fn>
    void
    forEachOverlapBatch(const AddrRange *ranges, size_t n,
                        Fn &&fn) const
    {
        batchWalk(ranges, n, [&](size_t r, const Item &item,
                                 const AddrRange &range) {
            fn(r, Entry{std::max(item.start, range.addr),
                        std::min(item.end, range.end()), item.value});
        });
    }

    /**
     * Batched mutable overlap iteration: fn(range_index, start, end,
     * value&) with stored (unclipped) bounds. Same REQUIRES as
     * forEachOverlapBatch; @p fn must not mutate the map's structure.
     */
    template <typename Fn>
    void
    forEachOverlapBatchMut(const AddrRange *ranges, size_t n, Fn &&fn)
    {
        batchWalk(ranges, n,
                  [&](size_t r, const Item &item, const AddrRange &) {
                      fn(r, item.start, item.end,
                         const_cast<V &>(item.value));
                  });
    }

    /** Whether any entry overlaps the range. */
    bool
    anyOverlap(const AddrRange &range) const
    {
        if (range.empty() || chunks_.empty())
            return false;
        const size_t ci = chunkLowerBound(range.addr);
        if (ci == chunks_.size() || chunks_[ci].lo >= range.end())
            return false;
        const Chunk &c = chunks_[ci];
        const size_t i = itemLowerBound(ci, range.addr);
        return i < c.items.size() && c.items[i].start < range.end();
    }

    /**
     * Whether the union of stored ranges fully covers @p range
     * (regardless of values).
     */
    bool
    covers(const AddrRange &range) const
    {
        if (range.empty())
            return true;
        uint64_t pos = range.addr;
        const size_t first = chunkLowerBound(range.addr);
        for (size_t ci = first; ci < chunks_.size(); ci++) {
            const Chunk &c = chunks_[ci];
            if (c.lo >= range.end())
                break;
            size_t i = ci == first ? itemLowerBound(ci, range.addr) : 0;
            for (; i < c.items.size() && c.items[i].start < range.end();
                 i++) {
                if (c.items[i].start > pos)
                    return false; // gap
                pos = std::max(pos, c.items[i].end);
                if (pos >= range.end())
                    return true;
            }
        }
        return false;
    }

    /** Invoke @p fn for every stored entry, in address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Chunk &c : chunks_)
            for (const Item &item : c.items)
                fn(Entry{item.start, item.end, item.value});
    }

    /** Number of stored (disjoint) entries. */
    size_t
    size() const
    {
        size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.items.size();
        return total;
    }

    /** True when no entries are stored. */
    bool empty() const { return chunks_.empty(); }

    /** Entries the backing storage can hold without reallocating. */
    size_t
    capacity() const
    {
        size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.items.capacity();
        for (const std::vector<Item> &v : spare_)
            total += v.capacity();
        return total;
    }

    /** Pre-size the backing storage (whole spare chunks). */
    void
    reserve(size_t entries)
    {
        size_t have = capacity();
        while (have < entries) {
            std::vector<Item> v;
            v.reserve(kChunkCapacity + 2);
            have += v.capacity();
            spare_.push_back(std::move(v));
        }
    }

    /** Number of chunks (layout diagnostics and tests). */
    size_t chunkCount() const { return chunks_.size(); }

    /**
     * Structural invariant check for tests: chunks non-empty and at
     * most kChunkCapacity entries, cached bounds in sync, all entries
     * non-empty, disjoint and globally sorted.
     */
    bool
    validate() const
    {
        uint64_t prev = 0;
        bool first = true;
        for (const Chunk &c : chunks_) {
            if (c.items.empty() ||
                c.items.size() > kChunkCapacity)
                return false;
            if (c.lo != c.items.front().start ||
                c.hi != c.items.back().end)
                return false;
            for (const Item &item : c.items) {
                if (item.start >= item.end)
                    return false;
                if (!first && item.start < prev)
                    return false;
                prev = item.end;
                first = false;
            }
        }
        return true;
    }

  private:
    struct Item
    {
        uint64_t start;
        uint64_t end;
        V value;
    };

    /**
     * One sorted run. Non-empty by invariant; lo/hi cache
     * items.front().start / items.back().end so chunk location never
     * touches item storage. Buffers are reserved to kChunkCapacity+2
     * (the worst transient before a split is capacity plus a
     * two-element strict-containment splice), so a chunk vector never
     * reallocates after creation.
     */
    struct Chunk
    {
        uint64_t lo = 0;
        uint64_t hi = 0;
        std::vector<Item> items;

        void
        sync()
        {
            lo = items.front().start;
            hi = items.back().end;
        }
    };

    /**
     * Index of the first chunk with hi > addr — the only chunk that
     * can contain an item overlapping an address-sorted probe at
     * @p addr. Validates the cached hint (and its successor) before
     * falling back to binary search; never writes the hint, so const
     * lookups are safe under concurrent readers.
     */
    size_t
    chunkLowerBound(uint64_t addr) const
    {
        const size_t n = chunks_.size();
        if (n == 0)
            return 0;
        if (n == 1) // small maps: the layout is one flat run
            return chunks_[0].hi > addr ? 0 : 1;
        const size_t h = hint_;
        if (h < n && chunks_[h].hi > addr &&
            (h == 0 || chunks_[h - 1].hi <= addr))
            return h;
        if (h + 1 < n && chunks_[h].hi <= addr &&
            chunks_[h + 1].hi > addr)
            return h + 1;
        size_t lo = 0, up = n;
        while (lo < up) {
            const size_t mid = lo + (up - lo) / 2;
            if (chunks_[mid].hi > addr)
                up = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    /**
     * Index of the first item in chunk @p ci with end > addr — the
     * only candidate for overlapping a range starting at @p addr
     * (items are disjoint and sorted, so ends are sorted too). The
     * item may still start at or beyond the probe range's end; callers
     * bound on that. On the hinted chunk the finger is tried first:
     * item f is exactly the lower bound when items[f].end > addr and
     * (f == 0 or items[f - 1].end <= addr), so a stale finger fails
     * the test and falls back to binary search. Never writes the
     * finger, so const lookups are safe under concurrent readers.
     */
    size_t
    itemLowerBound(size_t ci, uint64_t addr) const
    {
        const std::vector<Item> &items = chunks_[ci].items;
        const size_t f = finger_;
        if (ci == hint_ && f < items.size() && items[f].end > addr &&
            (f == 0 || items[f - 1].end <= addr))
            return f;
        size_t idx = static_cast<size_t>(
            std::upper_bound(items.begin(), items.end(), addr,
                             [](uint64_t a, const Item &item) {
                                 return a < item.start;
                             }) -
            items.begin());
        if (idx > 0 && items[idx - 1].end > addr)
            idx--;
        return idx;
    }

    /** Pop a retired buffer, or make one with the standard reserve. */
    std::vector<Item>
    takeSpare()
    {
        if (!spare_.empty()) {
            std::vector<Item> v = std::move(spare_.back());
            spare_.pop_back();
            return v;
        }
        std::vector<Item> v;
        v.reserve(kChunkCapacity + 2);
        return v;
    }

    /** Park a chunk buffer on the free-list for reuse. */
    void
    recycle(std::vector<Item> &&v)
    {
        v.clear();
        spare_.push_back(std::move(v));
    }

    /** Insert a fresh single-item chunk at chunk position @p pos. */
    void
    insertChunk(size_t pos, Item item)
    {
        Chunk c;
        c.items = takeSpare();
        c.items.push_back(std::move(item));
        c.sync();
        chunks_.insert(chunks_.begin() + pos, std::move(c));
    }

    /**
     * Split chunk @p ci in half if it outgrew kChunkCapacity; a finger
     * into the moved half follows its item into the new chunk.
     */
    void
    maybeSplit(size_t ci)
    {
        Chunk &c = chunks_[ci];
        if (c.items.size() <= kChunkCapacity)
            return;
        const size_t half = c.items.size() / 2;
        if (hint_ == ci && finger_ >= half) {
            hint_ = ci + 1;
            finger_ -= half;
        }
        Chunk right;
        right.items = takeSpare();
        right.items.insert(right.items.end(),
                           std::make_move_iterator(c.items.begin() +
                                                   half),
                           std::make_move_iterator(c.items.end()));
        c.items.erase(c.items.begin() + half, c.items.end());
        c.sync();
        right.sync();
        chunks_.insert(chunks_.begin() + ci + 1, std::move(right));
    }

    /**
     * Merge chunk @p ci with its smaller neighbor when @p ci dropped
     * below kMergeThreshold and the pair fits in kMergeLimit; the
     * hint moves to the merged chunk.
     */
    void
    maybeMerge(size_t ci)
    {
        if (chunks_[ci].items.size() >= kMergeThreshold)
            return;
        size_t buddy = ci; // sentinel: no neighbor
        if (ci > 0)
            buddy = ci - 1;
        if (ci + 1 < chunks_.size() &&
            (buddy == ci || chunks_[ci + 1].items.size() <
                                chunks_[buddy].items.size()))
            buddy = ci + 1;
        if (buddy == ci)
            return;
        if (chunks_[ci].items.size() + chunks_[buddy].items.size() >
            kMergeLimit)
            return;
        const size_t left = std::min(ci, buddy);
        const size_t right = std::max(ci, buddy);
        Chunk &l = chunks_[left];
        Chunk &r = chunks_[right];
        if (hint_ == right)
            finger_ += l.items.size(); // follow the item leftward
        l.items.insert(l.items.end(),
                       std::make_move_iterator(r.items.begin()),
                       std::make_move_iterator(r.items.end()));
        l.sync();
        recycle(std::move(r.items));
        chunks_.erase(chunks_.begin() + right);
        hint_ = left;
    }

    /**
     * assign() restricted to chunk @p ci — the range overlaps no later
     * chunk. This is the flat map's fused carve-and-insert, applied to
     * one small run.
     */
    void
    assignWithin(size_t ci, const AddrRange &range, V value)
    {
        Chunk &c = chunks_[ci];
        std::vector<Item> &items = c.items;
        size_t idx = itemLowerBound(ci, range.addr);
        if (idx == items.size() || items[idx].start >= range.end()) {
            // Nothing overlaps: plain sorted insert.
            items.insert(
                items.begin() + idx,
                Item{range.addr, range.end(), std::move(value)});
            c.sync();
            finger_ = idx;
            maybeSplit(ci);
            return;
        }

        Item &first = items[idx];
        if (first.start < range.addr && first.end > range.end()) {
            // One item strictly contains the range: split into
            // [left][new][right] with a single two-element splice.
            const Item middle{range.addr, range.end(),
                              std::move(value)};
            const Item right{range.end(), first.end, first.value};
            first.end = range.addr;
            items.insert(items.begin() + idx + 1, {middle, right});
            c.sync();
            finger_ = idx + 1;
            maybeSplit(ci);
            return;
        }

        if (first.start < range.addr) {
            // Left remainder keeps the old value in place.
            first.end = range.addr;
            idx++;
        }
        size_t last = idx;
        while (last < items.size() && items[last].end <= range.end())
            last++; // fully covered by the assignment
        if (last < items.size() && items[last].start < range.end()) {
            // Right remainder keeps the old value in place.
            items[last].start = range.end();
        }
        if (last > idx) {
            // Reuse the first covered slot; drop the rest.
            items[idx] =
                Item{range.addr, range.end(), std::move(value)};
            items.erase(items.begin() + idx + 1,
                        items.begin() + last);
            c.sync();
            finger_ = idx;
            maybeMerge(ci);
        } else {
            items.insert(
                items.begin() + idx,
                Item{range.addr, range.end(), std::move(value)});
            c.sync();
            finger_ = idx;
            maybeSplit(ci);
        }
    }

    /** erase() restricted to chunk @p ci (the flat map's carve). */
    void
    eraseWithin(size_t ci, const AddrRange &range)
    {
        Chunk &c = chunks_[ci];
        std::vector<Item> &items = c.items;
        size_t idx = itemLowerBound(ci, range.addr);
        if (idx == items.size() || items[idx].start >= range.end())
            return; // nothing overlaps

        Item &first = items[idx];
        if (first.start < range.addr && first.end > range.end()) {
            // One item strictly contains the range: split in two.
            Item right{range.end(), first.end, first.value};
            first.end = range.addr;
            items.insert(items.begin() + idx + 1, std::move(right));
            c.sync();
            maybeSplit(ci);
            return;
        }

        if (first.start < range.addr) {
            // Left remainder keeps the old value in place.
            first.end = range.addr;
            idx++;
        }
        size_t last = idx;
        while (last < items.size() && items[last].end <= range.end())
            last++; // fully covered: drop
        if (last < items.size() && items[last].start < range.end()) {
            // Right remainder keeps the old value in place.
            items[last].start = range.end();
        }
        items.erase(items.begin() + idx, items.begin() + last);
        if (items.empty()) {
            recycle(std::move(items));
            chunks_.erase(chunks_.begin() + ci);
            hint_ = 0;
        } else {
            c.sync();
            maybeMerge(ci);
        }
    }

    /**
     * Carve @p range out of chunks ci..: truncate the tail of chunk
     * @p ci, recycle fully-covered middle chunks whole, carve the
     * prefix of the final partially-overlapped chunk — then, when
     * @p value is non-null (assign), append the new item to chunk
     * @p ci. O(chunk) item movement plus O(chunks) header splice.
     *
     * Preconditions: chunks_[ci].hi > range.addr and
     * chunks_[ci + 1].lo < range.end() (the range crosses the seam).
     */
    void
    spliceAcross(size_t ci, const AddrRange &range, V *value)
    {
        {
            // Tail-carve chunk ci. Every item at/after the probe
            // index ends at most at chunks_[ci].hi, which is below
            // range.end() (the range crosses the seam), so apart
            // from a possible left remainder they are all covered.
            Chunk &c = chunks_[ci];
            size_t idx = itemLowerBound(ci, range.addr);
            if (idx < c.items.size()) {
                if (c.items[idx].start < range.addr) {
                    c.items[idx].end = range.addr; // left remainder
                    idx++;
                }
                c.items.erase(c.items.begin() + idx, c.items.end());
            }
        }

        // Recycle middle chunks the range covers entirely. Their
        // items all start above range.addr (chunk spans are disjoint)
        // and end at most at their hi <= range.end().
        size_t m = ci + 1;
        while (m < chunks_.size() && chunks_[m].hi <= range.end()) {
            recycle(std::move(chunks_[m].items));
            m++;
        }

        if (m < chunks_.size() && chunks_[m].lo < range.end()) {
            // Prefix-carve the final chunk. Its lo sits above
            // range.addr, so there is no left remainder; its hi is
            // above range.end(), so the last item always survives.
            Chunk &f = chunks_[m];
            size_t j = 0;
            while (j < f.items.size() &&
                   f.items[j].end <= range.end())
                j++; // fully covered: drop
            if (j < f.items.size() &&
                f.items[j].start < range.end())
                f.items[j].start = range.end(); // right remainder
            f.items.erase(f.items.begin(), f.items.begin() + j);
            f.sync();
        }
        if (m > ci + 1)
            chunks_.erase(chunks_.begin() + ci + 1,
                          chunks_.begin() + m);

        Chunk &c = chunks_[ci];
        if (value) {
            // The surviving items of chunk ci all end at or before
            // range.addr, so the new item appends in order.
            c.items.push_back(
                Item{range.addr, range.end(), std::move(*value)});
            c.sync();
            finger_ = c.items.size() - 1;
            maybeSplit(ci);
            maybeMerge(ci);
        } else if (c.items.empty()) {
            recycle(std::move(c.items));
            chunks_.erase(chunks_.begin() + ci);
            hint_ = 0;
        } else {
            c.sync();
            maybeMerge(ci);
        }
    }

    /**
     * assignBatch helper: every remaining range starts at or past the
     * last chunk's end (ranges are sorted), so consume them all with
     * plain appends, opening fresh chunks as runs fill.
     */
    size_t
    appendRun(const AddrRange *ranges, size_t i, size_t n,
              const V &value)
    {
        while (i < n) {
            const AddrRange &r = ranges[i];
            i++;
            if (r.empty())
                continue;
            if (chunks_.empty() ||
                chunks_.back().items.size() >= kChunkCapacity) {
                Chunk c;
                c.items = takeSpare();
                c.items.push_back(Item{r.addr, r.end(), value});
                c.sync();
                chunks_.push_back(std::move(c));
            } else {
                Chunk &c = chunks_.back();
                c.items.push_back(Item{r.addr, r.end(), value});
                c.hi = r.end();
            }
        }
        hint_ = chunks_.empty() ? 0 : chunks_.size() - 1;
        finger_ = chunks_.empty() ? 0 : chunks_.back().items.size() - 1;
        return i;
    }

    /**
     * assignBatch helper: ranges[i] overlaps nothing and belongs at
     * item position @p idx of chunk @p ci. Take the longest run of
     * following ranges that fit in the same gap (before the next
     * stored item) and splice them in with one insert, bounded so the
     * chunk buffer never reallocates.
     */
    size_t
    gapInsertRun(size_t ci, size_t idx, const AddrRange *ranges,
                 size_t i, size_t n, const V &value)
    {
        Chunk &c = chunks_[ci];
        const uint64_t limit = c.items[idx].start;
        const size_t room = kChunkCapacity + 2 - c.items.size();
        size_t k = 0;
        while (i + k < n && k < room && !ranges[i + k].empty() &&
               ranges[i + k].end() <= limit)
            k++;
        scratch_.clear();
        for (size_t t = 0; t < k; t++)
            scratch_.push_back(
                Item{ranges[i + t].addr, ranges[i + t].end(), value});
        c.items.insert(c.items.begin() + idx,
                       std::make_move_iterator(scratch_.begin()),
                       std::make_move_iterator(scratch_.end()));
        c.sync();
        hint_ = ci;
        finger_ = idx + k - 1;
        maybeSplit(ci);
        return i + k;
    }

    /**
     * Shared cursor walk behind the batch iterations: for each range,
     * advance a monotone (chunk, item) cursor to the first item with
     * end > range.addr, then visit items until start >= range.end().
     * Entering a chunk places the item cursor with itemLowerBound (the
     * finger, else a binary search) rather than a scan from item 0.
     * The cursor is left at the range's first overlap candidate — an
     * item spanning two probe ranges is revisited, never skipped.
     */
    template <typename Visit>
    void
    batchWalk(const AddrRange *ranges, size_t n, Visit &&visit) const
    {
        if (chunks_.empty())
            return;
        size_t r = 0;
        while (r < n && ranges[r].empty())
            r++;
        if (r == n)
            return;
        size_t ci = chunkLowerBound(ranges[r].addr);
        size_t ii = 0;
        bool placed = false; // ii not yet positioned in chunk ci
        for (; r < n; r++) {
            const AddrRange &range = ranges[r];
            if (range.empty())
                continue;
            while (ci < chunks_.size()) {
                const Chunk &c = chunks_[ci];
                if (c.hi <= range.addr) {
                    ci++;
                    placed = false;
                    continue;
                }
                if (!placed) {
                    ii = itemLowerBound(ci, range.addr);
                    placed = true;
                }
                while (ii < c.items.size() &&
                       c.items[ii].end <= range.addr)
                    ii++;
                break; // c.hi > range.addr, so ii is in bounds
            }
            if (ci == chunks_.size())
                return; // nothing left for any later range either
            size_t cj = ci, jj = ii;
            while (cj < chunks_.size()) {
                const Chunk &c = chunks_[cj];
                if (jj == c.items.size()) {
                    cj++;
                    jj = 0;
                    continue;
                }
                const Item &item = c.items[jj];
                if (item.start >= range.end())
                    break;
                visit(r, item, range);
                jj++;
            }
        }
    }

    std::vector<Chunk> chunks_;
    /** Retired chunk buffers, capacity intact, ready for takeSpare. */
    std::vector<std::vector<Item>> spare_;
    /** Batch-splice staging buffer (gapInsertRun). */
    std::vector<Item> scratch_;
    /**
     * Chunk index of the last mutation — sequential traces keep
     * hitting the same chunk, making chunk location O(1). Only
     * mutating operations write it.
     */
    size_t hint_ = 0;
    /**
     * The finger: index, within chunk hint_, of the item the last
     * mutation placed — a write's writeback, fence and check probe
     * that same item, making item location O(1). Validated before
     * every use (itemLowerBound); only mutating operations write it.
     */
    size_t finger_ = 0;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_INTERVAL_MAP_HH
