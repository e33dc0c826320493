/**
 * @file
 * Lightweight source location record attached to traced PM operations
 * and checkers, so that WARN/FAIL reports can point at the offending
 * `file:line` exactly as the paper's checking engine does.
 */

#ifndef PMTEST_UTIL_SOURCE_LOCATION_HH
#define PMTEST_UTIL_SOURCE_LOCATION_HH

#include <charconv>
#include <cstdint>
#include <string>

namespace pmtest
{

/**
 * A (file, line) pair. We use a plain const char* for the file name:
 * every call site passes __FILE__, which has static storage duration,
 * so no ownership is needed and records stay trivially copyable.
 */
struct SourceLocation
{
    const char *file = "";
    uint32_t line = 0;

    constexpr SourceLocation() = default;
    constexpr SourceLocation(const char *f, uint32_t l) : file(f), line(l) {}

    /** Whether this record carries a real location. */
    constexpr bool valid() const { return line != 0; }

    /** Append "file:line" (or "<unknown>" when unset) to @p out. */
    void
    appendTo(std::string &out) const
    {
        if (!valid()) {
            out += "<unknown>";
            return;
        }
        char buf[10];
        out += file;
        out += ":";
        out.append(buf, std::to_chars(buf, buf + sizeof buf, line).ptr);
    }

    /** Render as "file:line" (or "<unknown>" when unset). */
    std::string
    str() const
    {
        std::string s;
        appendTo(s);
        return s;
    }
};

/** Convenience macro: the current source location. */
#define PMTEST_HERE ::pmtest::SourceLocation(__FILE__, __LINE__)

} // namespace pmtest

#endif // PMTEST_UTIL_SOURCE_LOCATION_HH
