/**
 * @file
 * Shadow memory: per-address-range persistency status plus the global
 * epoch counter (paper §4.4). Each modified range carries a persist
 * interval (when the data may/must have reached PM) and a flush
 * interval (when an issued writeback may/must have completed). The
 * persistency models drive the transitions; the checkers read the
 * intervals.
 */

#ifndef PMTEST_CORE_SHADOW_MEMORY_HH
#define PMTEST_CORE_SHADOW_MEMORY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/interval.hh"
#include "core/interval_map.hh"

namespace pmtest::core
{

/** Persistency status of one address range. */
struct RangeStatus
{
    Interval persist{};      ///< persist interval (valid if hasPersist)
    Interval flush{};        ///< flush interval (valid if hasFlush)
    bool hasPersist = false; ///< range was written in this trace
    bool hasFlush = false;   ///< a writeback was issued for the range
};

/** Outcome of scanning a clwb target range, used for WARN rules. */
struct ClwbScan
{
    bool redundant = false;   ///< an open flush interval already covers
                              ///< part of the range (flushed twice
                              ///< without an intervening fence)
    bool unmodified = false;  ///< no write recorded anywhere in range
    bool alreadyClean = false;///< writes exist but all are persisted
                              ///< and no new data is pending

    /** Whether any WARN rule fired. */
    bool any() const { return redundant || unmodified || alreadyClean; }
};

/**
 * The per-trace shadow memory. Checked traces are independent: each
 * check starts from a pristine shadow. Engines reuse one instance
 * across traces via reset(), which restores the pristine state while
 * keeping the interval maps' flat storage allocated — steady-state
 * checking performs no shadow allocations.
 */
class ShadowMemory
{
  public:
    /**
     * Restore the pristine (start-of-trace) state. Equivalent to
     * constructing a fresh instance except that the backing storage
     * of the interval maps keeps its capacity.
     */
    void
    reset()
    {
        timestamp_ = 0;
        map_.clear();
        pendingFlushes_.clear();
        openWrites_.clear();
    }

    /**
     * Whether writes are remembered for completeAllWrites() (default
     * on; the engine turns it off for models that never dfence).
     * Survives reset().
     */
    void setTrackOpenWrites(bool on) { trackOpenWrites_ = on; }

    /** Current global timestamp (epoch). */
    Epoch timestamp() const { return timestamp_; }

    /** Advance the epoch (every ordering point does this). */
    void bumpTimestamp() { timestamp_++; }

    /**
     * Record a store: clears any existing status over the range, then
     * opens a persist interval at the current epoch.
     */
    void recordWrite(const AddrRange &range);

    /**
     * Record @p n stores at once through the interval maps' batched
     * assign, which sorts nothing and searches once per run instead
     * of once per store. REQUIRES: ranges sorted by addr and pairwise
     * disjoint — under that precondition the resulting shadow state
     * (including entry fragmentation, which leaks into finding
     * messages) is byte-identical to n recordWrite calls in any
     * order. The engine groups consecutive trace writes and flushes
     * the group early when a write would overlap a batched one.
     */
    void recordWriteBatch(const AddrRange *ranges, size_t n);

    /**
     * Record a writeback: opens a flush interval at the current epoch
     * over the range (preserving persist intervals), and remembers the
     * range as fence-pending. One overlap walk both scans the range's
     * pre-update status for the clwb WARN rules (the returned
     * ClwbScan) and opens the flush intervals of the entries the range
     * covers in place; only entries straddling its bounds and the
     * unwritten gaps are carved, through a reused buffer.
     */
    ClwbScan recordClwb(const AddrRange &range);

    /**
     * Complete fence-pending writebacks: close their flush intervals
     * and the persist intervals they cover at the current epoch.
     * Call after bumpTimestamp(), per the paper's sfence rule.
     */
    void completePendingFlushes();

    /**
     * Close the persist intervals of ALL writes recorded so far at the
     * current epoch (the HOPS dfence rule).
     */
    void completeAllWrites();

    /**
     * Whether every persist interval overlapping @p range is closed by
     * the current epoch (the isPersist condition). Ranges that were
     * never written pass vacuously.
     * @param first_open if non-null and the check fails, receives the
     *        first still-open subrange.
     */
    bool allPersisted(const AddrRange &range,
                      AddrRange *first_open = nullptr) const;

    /**
     * Visit the persist intervals overlapping @p range (clipped), in
     * address order, as fn(const AddrRange &, const Interval &).
     */
    template <typename Fn>
    void
    forEachPersist(const AddrRange &range, Fn &&fn) const
    {
        map_.forEachOverlap(range, [&](const auto &entry) {
            if (entry.value.hasPersist)
                fn(AddrRange(entry.start, entry.end - entry.start),
                   entry.value.persist);
        });
    }

    /**
     * Bounding range of the bytes in @p range whose persist interval
     * is open but which have no open flush interval — the bytes a
     * fence alone cannot persist. Empty when every pending byte
     * already has a writeback in flight (a fence suffices); the fix
     * synthesizers use this to choose between InsertFence and
     * InsertFlushFence.
     */
    AddrRange unflushedSpan(const AddrRange &range) const;

    /** Whether any write was recorded in @p range. */
    bool anyWrite(const AddrRange &range) const;

    /** Number of distinct status entries (diagnostics). */
    size_t entryCount() const { return map_.size(); }

    /** Visit every stored entry in address order (unclipped). */
    template <typename Fn>
    void forEach(Fn &&fn) const { map_.forEach(fn); }

    /**
     * Number of distinct fence-pending writeback ranges. Repeated
     * clwb of the same line coalesces to one entry, keeping
     * completePendingFlushes() linear in *distinct* ranges rather
     * than in issued flushes.
     */
    size_t pendingFlushCount() const { return pendingFlushes_.size(); }

    /** Number of distinct written-since-dfence ranges (HOPS). */
    size_t openWriteCount() const { return openWrites_.size(); }

  private:
    Epoch timestamp_ = 0;
    IntervalMap<RangeStatus> map_;
    /**
     * Ranges clwb'ed since the last fence, coalesced at record time:
     * an interval set, so duplicate flushes of the same line cannot
     * accumulate within an epoch.
     */
    IntervalMap<uint8_t> pendingFlushes_;
    /**
     * Ranges written since the last dfence (HOPS bookkeeping); left
     * empty while trackOpenWrites_ is off.
     */
    IntervalMap<uint8_t> openWrites_;
    bool trackOpenWrites_ = true;
    /** recordClwb's reused buffer of gaps and straddling parts. */
    std::vector<std::pair<AddrRange, RangeStatus>> carve_;
    /**
     * Reused staging buffer for the fence-completion walks: the
     * pending/open entries are collected here (already sorted and
     * disjoint by map invariant) and applied to map_ with one batched
     * overlap walk instead of one binary search per entry.
     */
    std::vector<AddrRange> scratch_;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_SHADOW_MEMORY_HH
