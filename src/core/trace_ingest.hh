/**
 * @file
 * The one ingest implementation: check every trace of a TraceSource —
 * a whole v2 file, a byte-range shard, a multi-file set, or the live
 * in-process capture sink — on an engine pool. Traces are independent
 * (paper §4.4), so any thread can check any whole trace: every pool
 * worker and every ingest-side thread claims the next trace from the
 * source's shared cursor, decodes it through a fixed window of ops
 * into its own engine and merges the report (EnginePool::
 * checkSource). Decode and check happen on the same thread with no
 * queue between them, so all cores decode and check, and peak memory
 * is one decode window per thread — not the whole input, nor a
 * backlog of decoded traces.
 *
 * Every trace is identity-stamped (fileId, traceId), and a report
 * with findings holds the string arena its locations point into, so
 * the merged report canonicalizes to the same bytes regardless of
 * how sources, shards and threads interleaved.
 *
 * Used by pmtest_check (--decoders=N, multi-file, --worker=i/N),
 * examples/offline_check, bench_ingest, and the determinism tests.
 */

#ifndef PMTEST_CORE_TRACE_INGEST_HH
#define PMTEST_CORE_TRACE_INGEST_HH

#include "core/engine_pool.hh"
#include "trace/trace_source.hh"

namespace pmtest::core
{

/**
 * Live progress of one ingest() call, safe to read from any thread
 * while it runs. The metrics publisher samples it to tell
 * "source still has traces" from "ingest finished" — the EOF and
 * stall-watchdog signals the drained TraceSource alone can't give.
 */
struct IngestProgress
{
    std::atomic<bool> done{false}; ///< ingest() has returned
};

/** Knobs for ingest(). */
struct IngestOptions
{
    /**
     * Unread: every thread claims from the source's one shared
     * cursor, so there is no placement to choose. It remains only
     * while bench/pipeline still assigns it.
     */
    enum class Affinity
    {
        Shared,
    };

    /**
     * Ingest-side threads that claim and check traces next to the
     * pool's workers (>= 1; the first is the calling thread).
     */
    size_t decoders = 1;
    /**
     * Unread: traces are claimed one at a time, not submitted in
     * batches. It remains only while bench/pipeline still assigns it.
     */
    size_t batch = 8;
    /** Unread; see Affinity. */
    Affinity affinity = Affinity::Shared;
    /** Optional live-progress mirror (not owned; may be null). */
    IngestProgress *progress = nullptr;
};

/**
 * Check every trace of @p source on @p pool's workers and
 * @p options.decoders ingest-side threads (see EnginePool::
 * checkSource). Returns once every trace is *checked*: the findings
 * are in pool.results(). Records the ingest counters on @p pool (its
 * stats() carries them) and copies them to @p ingest when non-null.
 *
 * @return false when the source reports an error (the first error is
 *         copied to @p error when provided; remaining traces are
 *         abandoned, the failed trace adds no findings, and traces
 *         checked before it keep theirs).
 */
bool ingest(TraceSource &source, EnginePool &pool,
            const IngestOptions &options, IngestStats *ingest,
            SourceError *error = nullptr);

} // namespace pmtest::core

#endif // PMTEST_CORE_TRACE_INGEST_HH
