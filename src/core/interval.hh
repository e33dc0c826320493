/**
 * @file
 * Persist intervals — the paper's central abstraction (§3.1, §4.4).
 *
 * Execution is divided into epochs delimited by fences; a write's
 * persist interval (E1, E2) says the write may reach persistence at
 * any time between epoch E1 and epoch E2. An unbounded end (infinity)
 * means nothing in the trace guarantees the write ever persists.
 */

#ifndef PMTEST_CORE_INTERVAL_HH
#define PMTEST_CORE_INTERVAL_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

namespace pmtest::core
{

/** Epoch counter type; incremented at every ordering point. */
using Epoch = uint64_t;

/** Sentinel for an unbounded interval end. */
constexpr Epoch kInfEpoch = std::numeric_limits<Epoch>::max();

/**
 * A persist (or flush) interval (begin, end).
 *
 * `begin` is the epoch in which the operation executed — it may take
 * effect any time from then on. `end` is the epoch at which it is
 * guaranteed to have taken effect, or kInfEpoch while open.
 */
struct Interval
{
    Epoch begin = 0;
    Epoch end = kInfEpoch;

    constexpr Interval() = default;
    constexpr Interval(Epoch b, Epoch e) : begin(b), end(e) {}

    /** An interval opened at @p b with no guarantee yet. */
    static constexpr Interval open(Epoch b) { return {b, kInfEpoch}; }

    /** Whether the interval is still unbounded. */
    constexpr bool isOpen() const { return end == kInfEpoch; }

    /** Close the interval at epoch @p e (no-op if already closed). */
    void
    close(Epoch e)
    {
        if (isOpen())
            end = e;
    }

    /**
     * Whether two intervals overlap, i.e. neither is guaranteed to
     * complete before the other may begin. Matches the paper's Fig. 7:
     * (0,1) and (1,inf) do NOT overlap — the first is done by epoch 1,
     * the second cannot begin before epoch 1.
     */
    constexpr bool
    overlaps(const Interval &other) const
    {
        return end > other.begin && other.end > begin;
    }

    /** Whether this interval is guaranteed complete before @p other. */
    constexpr bool
    endsBefore(const Interval &other) const
    {
        return end <= other.begin;
    }

    /** Whether this interval completes no later than epoch @p e. */
    constexpr bool
    closedBy(Epoch e) const
    {
        return end != kInfEpoch && end <= e;
    }

    constexpr bool
    operator==(const Interval &other) const
    {
        return begin == other.begin && end == other.end;
    }

    /** Render as "(b,e)" with infinity shown as "inf". */
    std::string
    str() const
    {
        std::string s = "(" + std::to_string(begin) + ",";
        s += isOpen() ? "inf" : std::to_string(end);
        s += ")";
        return s;
    }
};

/** A half-open address range [addr, addr + size). */
struct AddrRange
{
    uint64_t addr = 0;
    uint64_t size = 0;

    constexpr AddrRange() = default;
    constexpr AddrRange(uint64_t a, uint64_t s) : addr(a), size(s) {}

    constexpr uint64_t end() const { return addr + size; }
    constexpr bool empty() const { return size == 0; }

    /** Whether two ranges share at least one byte. */
    constexpr bool
    overlaps(const AddrRange &other) const
    {
        return !empty() && !other.empty() && addr < other.end() &&
               other.addr < end();
    }

    /** Whether @p other is entirely within this range. */
    constexpr bool
    covers(const AddrRange &other) const
    {
        return addr <= other.addr && other.end() <= end();
    }

    /** Append "[0xaddr,0xend)" (lowercase hex) to @p out. */
    void
    appendTo(std::string &out) const
    {
        char buf[16];
        out += "[0x";
        out.append(buf, std::to_chars(buf, buf + sizeof buf, addr, 16).ptr);
        out += ",0x";
        out.append(buf,
                   std::to_chars(buf, buf + sizeof buf, end(), 16).ptr);
        out += ")";
    }

    /** Render as "[0xaddr,0xend)". */
    std::string
    str() const
    {
        std::string s;
        appendTo(s);
        return s;
    }
};

} // namespace pmtest::core

#endif // PMTEST_CORE_INTERVAL_HH
