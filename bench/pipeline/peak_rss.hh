/**
 * @file
 * Per-phase peak RSS. getrusage's ru_maxrss is a process-lifetime
 * high-water mark, so a phase that runs after a bigger one reads +0.
 * Linux resets the VmHWM mark to the current RSS when "5" is written
 * to /proc/self/clear_refs; reading VmHWM afterwards gives the peak of
 * the phase alone.
 */

#ifndef PMTEST_BENCH_PIPELINE_PEAK_RSS_HH
#define PMTEST_BENCH_PIPELINE_PEAK_RSS_HH

#include <cstddef>
#include <cstdio>
#include <cstring>

namespace pmtest::bench
{

/** Start a new peak-RSS phase. @return false if the kernel refused. */
inline bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** Peak RSS (VmHWM) since the last reset, in KiB; 0 if unreadable. */
inline size_t
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    size_t kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%zu", &kb);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

} // namespace pmtest::bench

#endif // PMTEST_BENCH_PIPELINE_PEAK_RSS_HH
