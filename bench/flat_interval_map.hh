/**
 * @file
 * The single flat sorted-vector interval map this repository shipped
 * before the chunked rewrite, preserved verbatim as the "before" side
 * of the storage-layout ablation and the differential reference for
 * the chunked layout. Benchmarks pit it against core::IntervalMap
 * (chunked) on the same op streams; nothing outside bench/ and tests/
 * may include this header.
 *
 * Strengths and the known cliff: lookups binary-search one contiguous
 * array (great cache behavior while the map is small), but every
 * mutation splices with memmove over the whole suffix — O(n) per op,
 * which is what loses to node storage once a sparse workload grows
 * the map to thousands of entries (the 1 MiB sparse shape in
 * bench_kernel).
 */

#ifndef PMTEST_BENCH_FLAT_INTERVAL_MAP_HH
#define PMTEST_BENCH_FLAT_INTERVAL_MAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/interval.hh"

namespace pmtest::bench
{

/**
 * Map from disjoint half-open ranges [start, end) to values of type V,
 * backed by one flat vector of ranges sorted by start.
 */
template <typename V>
class FlatIntervalMap
{
  public:
    /** One visited entry: [start, end) -> value. */
    struct Entry
    {
        uint64_t start;
        uint64_t end;
        const V &value;
    };

    /**
     * Assign @p value to [range.addr, range.end()).
     *
     * Fused carve-and-insert: when the assignment replaces at least
     * one fully-covered stored item, the new item overwrites that slot
     * in place and only the surplus items are spliced out.
     */
    void
    assign(const core::AddrRange &range, V value)
    {
        if (range.empty())
            return;
        size_t idx = firstOverlap(range);
        if (idx == items_.size() || items_[idx].start >= range.end()) {
            // Nothing overlaps: plain sorted insert.
            items_.insert(
                items_.begin() + idx,
                Item{range.addr, range.end(), std::move(value)});
            return;
        }

        Item &first = items_[idx];
        if (first.start < range.addr && first.end > range.end()) {
            // One item strictly contains the range: split into
            // [left][new][right] with a single two-element splice.
            const Item middle{range.addr, range.end(),
                              std::move(value)};
            const Item right{range.end(), first.end, first.value};
            first.end = range.addr;
            items_.insert(items_.begin() + idx + 1, {middle, right});
            return;
        }

        if (first.start < range.addr) {
            // Left remainder keeps the old value in place.
            first.end = range.addr;
            idx++;
        }
        size_t last = idx;
        while (last < items_.size() && items_[last].end <= range.end())
            last++; // fully covered by the assignment
        if (last < items_.size() && items_[last].start < range.end()) {
            // Right remainder keeps the old value in place.
            items_[last].start = range.end();
        }
        if (last > idx) {
            // Reuse the first covered slot; drop the rest.
            items_[idx] =
                Item{range.addr, range.end(), std::move(value)};
            items_.erase(items_.begin() + idx + 1,
                         items_.begin() + last);
        } else {
            items_.insert(
                items_.begin() + idx,
                Item{range.addr, range.end(), std::move(value)});
        }
    }

    /** Remove any values within the range. */
    void
    erase(const core::AddrRange &range)
    {
        if (range.empty())
            return;
        carve(range);
    }

    /** Remove everything; the backing storage keeps its capacity. */
    void clear() { items_.clear(); }

    /**
     * Invoke @p fn for every stored entry overlapping @p range, in
     * address order. The entry passed is clipped to the overlap.
     */
    template <typename Fn>
    void
    forEachOverlap(const core::AddrRange &range, Fn &&fn) const
    {
        if (range.empty())
            return;
        for (size_t i = firstOverlap(range);
             i < items_.size() && items_[i].start < range.end(); i++) {
            const Item &item = items_[i];
            fn(Entry{std::max(item.start, range.addr),
                     std::min(item.end, range.end()), item.value});
        }
    }

    /**
     * Mutable overlap iteration: @p fn receives the value by reference
     * (the entry bounds are the stored, unclipped bounds).
     */
    template <typename Fn>
    void
    forEachOverlapMut(const core::AddrRange &range, Fn &&fn)
    {
        if (range.empty())
            return;
        for (size_t i = firstOverlap(range);
             i < items_.size() && items_[i].start < range.end(); i++)
            fn(items_[i].start, items_[i].end, items_[i].value);
    }

    /** Whether any entry overlaps the range. */
    bool
    anyOverlap(const core::AddrRange &range) const
    {
        if (range.empty())
            return false;
        const size_t i = firstOverlap(range);
        return i < items_.size() && items_[i].start < range.end();
    }

    /**
     * Whether the union of stored ranges fully covers @p range
     * (regardless of values).
     */
    bool
    covers(const core::AddrRange &range) const
    {
        if (range.empty())
            return true;
        uint64_t pos = range.addr;
        for (size_t i = firstOverlap(range);
             i < items_.size() && items_[i].start < range.end(); i++) {
            if (items_[i].start > pos)
                return false; // gap
            pos = std::max(pos, items_[i].end);
            if (pos >= range.end())
                return true;
        }
        return false;
    }

    /** Invoke @p fn for every stored entry, in address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Item &item : items_)
            fn(Entry{item.start, item.end, item.value});
    }

    /** Number of stored (disjoint) entries. */
    size_t size() const { return items_.size(); }

    /** True when no entries are stored. */
    bool empty() const { return items_.empty(); }

    /** Entries the backing storage can hold without reallocating. */
    size_t capacity() const { return items_.capacity(); }

    /** Pre-size the backing storage. */
    void reserve(size_t entries) { items_.reserve(entries); }

  private:
    struct Item
    {
        uint64_t start;
        uint64_t end;
        V value;
    };

    /**
     * Index of the first stored item with end > range.addr — the only
     * candidate for overlapping @p range.
     */
    size_t
    firstOverlap(const core::AddrRange &range) const
    {
        size_t idx = static_cast<size_t>(
            std::upper_bound(items_.begin(), items_.end(), range.addr,
                             [](uint64_t addr, const Item &item) {
                                 return addr < item.start;
                             }) -
            items_.begin());
        if (idx > 0 && items_[idx - 1].end > range.addr)
            idx--;
        return idx;
    }

    /**
     * Remove the range from all stored items, splitting boundary items
     * so their parts outside the range survive.
     * @return the index at which an item starting at range.addr
     *         belongs after the carve.
     */
    size_t
    carve(const core::AddrRange &range)
    {
        size_t idx = firstOverlap(range);
        if (idx == items_.size() || items_[idx].start >= range.end())
            return idx; // nothing overlaps

        Item &first = items_[idx];
        if (first.start < range.addr && first.end > range.end()) {
            // One item strictly contains the range: split in two.
            Item right{range.end(), first.end, first.value};
            first.end = range.addr;
            items_.insert(items_.begin() + idx + 1, std::move(right));
            return idx + 1;
        }

        if (first.start < range.addr) {
            // Left remainder keeps the old value in place.
            first.end = range.addr;
            idx++;
        }
        size_t last = idx;
        while (last < items_.size() && items_[last].end <= range.end())
            last++; // fully covered: drop
        if (last < items_.size() && items_[last].start < range.end()) {
            // Right remainder keeps the old value in place.
            items_[last].start = range.end();
        }
        items_.erase(items_.begin() + idx, items_.begin() + last);
        return idx;
    }

    std::vector<Item> items_;
};

} // namespace pmtest::bench

#endif // PMTEST_BENCH_FLAT_INTERVAL_MAP_HH
