/**
 * @file
 * Core-count detection and the derived default pipeline layout, in
 * one place. Every component that sizes a thread team — engine-pool
 * workers, ingest decoders, the bench harnesses' skip heuristics —
 * goes through these helpers, so the precedence is uniform
 * everywhere: explicit flag beats PMTEST_WORKERS / PMTEST_DECODERS
 * environment overrides, which beat hardware detection (documented
 * in README "Thread-count precedence").
 */

#ifndef PMTEST_UTIL_CPU_HH
#define PMTEST_UTIL_CPU_HH

#include <cstddef>

namespace pmtest::util
{

/** std::thread::hardware_concurrency(), clamped to at least 1. */
size_t hardwareThreads();

/**
 * The value of environment variable @p name when it parses as a
 * positive integer, else @p fallback. Unset, empty, malformed and
 * zero values all fall back — an override can only name a real
 * thread count (pass --workers=0 to a tool for inline mode).
 */
size_t envThreadOverride(const char *name, size_t fallback);

/**
 * The core count benches and tools should size against:
 * PMTEST_WORKERS when set, else the detected hardware threads.
 */
size_t configuredWorkers();

/** Default worker/decoder split for the offline pipeline. */
struct PipelineLayout
{
    size_t workers;  ///< pool workers (0 = inline checking)
    size_t decoders; ///< ingest-side checking threads (>= 1)
};

/**
 * Derive the default pipeline layout from the available cores. A
 * single-core host checks inline with one decoder — extra threads
 * only add context switching (EXPERIMENTS.md, decoder scaling). A
 * multi-core host gives roughly a quarter of the cores (clamped to
 * 1..4) to the ingest side and the rest to engine workers; offline,
 * every one of those threads claims, decodes and checks traces, so
 * the split only sizes the pool for live checking. PMTEST_WORKERS /
 * PMTEST_DECODERS
 * override the respective halves; explicit tool flags override both
 * (applied by the callers).
 */
PipelineLayout defaultPipelineLayout();

} // namespace pmtest::util

#endif // PMTEST_UTIL_CPU_HH
