/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses. Scale
 * is controlled by the PMTEST_BENCH_SCALE environment variable
 * (default 1): the defaults keep every binary in the seconds range on
 * a laptop; raise the scale for larger, more stable numbers.
 */

#ifndef PMTEST_BENCH_BENCH_UTIL_HH
#define PMTEST_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "obs/metrics_doc.hh"
#include "obs/telemetry.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace pmtest::bench
{

/** Global scale factor from PMTEST_BENCH_SCALE (>= 1). */
inline size_t
scale()
{
    static const size_t value = [] {
        const char *env = std::getenv("PMTEST_BENCH_SCALE");
        if (!env)
            return size_t{1};
        const long parsed = std::atol(env);
        return parsed > 0 ? static_cast<size_t>(parsed) : size_t{1};
    }();
    return value;
}

/** Print a harness banner naming the paper artifact it regenerates. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("==============================================="
                "=============\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("(scale=%zu; set PMTEST_BENCH_SCALE to grow the "
                "workload)\n",
                scale());
    std::printf("==============================================="
                "=============\n");
}

/** Format a slowdown as "3.42x". */
inline std::string
fmtSlowdown(double factor)
{
    return fmtDouble(factor, 2) + "x";
}

/** Write a finished JsonWriter document to @p path ("-" = stdout). */
inline bool
writeJsonFile(const std::string &path, const JsonWriter &w)
{
    std::string error;
    if (pmtest::writeJsonFile(path, w, &error))
        return true;
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
}

/**
 * Write the metrics document of harness @p bench to @p path: an
 * empty-gauge sample of the telemetry registry (counters + per-stage
 * latency histograms) with the scale in "run" and @p verdict's
 * members (none when null) in "verdict".
 */
inline bool
writeMetricsSnapshot(const std::string &path, const char *bench,
                     std::function<void(JsonWriter &)> verdict = nullptr)
{
    obs::GaugeSample sample;
    sample.metrics = obs::Telemetry::instance().metrics();
    obs::ExitBlocks exit;
    exit.run = [](JsonWriter &w) { w.member("scale", scale()); };
    exit.verdict = std::move(verdict);
    JsonWriter w;
    obs::renderMetricsJson(w, sample, bench, &exit);
    return pmtest::bench::writeJsonFile(path, w);
}

} // namespace pmtest::bench

#endif // PMTEST_BENCH_BENCH_UTIL_HH
