/**
 * @file
 * The one ingest implementation: a decoder thread team pulls batches
 * of decoded traces from a TraceSource — a whole v2 file, a byte-
 * range shard, a multi-file set, or the live in-process capture
 * sink — and feeds the engine pool. Decode of
 * trace N+1 overlaps checking of trace N, and the pool's bounded
 * queues backpressure the decoders, so peak memory is the in-flight
 * window — not the whole input, as with the old sequential path.
 *
 * Every trace arrives identity-stamped (fileId, traceId) with its
 * string arena attached, so the merged report canonicalizes to the
 * same bytes regardless of how sources, shards and decoder threads
 * interleaved.
 *
 * Used by pmtest_check (--decoders=N, --shards=N, multi-file),
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
 * while the decoders run. The metrics publisher samples it to tell
 * "source still has traces" from "decoders finished" — the EOF and
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
     * Decoder→engine placement policy for multi-source inputs
     * (shards or file sets).
     */
    enum class Affinity
    {
        /**
         * Pinned when it can help: a multi-source input and at
         * least two pool workers. Otherwise shared.
         */
        Auto,
        /** All decoders pull one shared cursor; round-robin submit. */
        Shared,
        /**
         * Each child source is drained by one decoder and submitted
         * to one fixed worker slot (child index modulo workers), so
         * a shard's traces keep hitting an engine whose TraceState
         * is warm for that shard's address pattern. Falls back to
         * Shared for single sources and inline pools.
         */
        Pinned,
    };

    /** Decoder threads (>= 1). */
    size_t decoders = 1;
    /** Traces submitted to the pool per submitBatch() call. */
    size_t batch = 8;
    /** Placement policy (canonical reports are identical in all). */
    Affinity affinity = Affinity::Auto;
    /** Optional live-progress mirror (not owned; may be null). */
    IngestProgress *progress = nullptr;
};

/**
 * Drain @p source on @p options.decoders threads and submit every
 * trace to @p pool. Returns once all traces are *submitted* (call
 * pool.results() to also wait for checking). Records the decode/
 * stall counters on @p pool (its stats() carries them) and copies
 * them to @p ingest when non-null.
 *
 * @return false when the source reports an error (the first error is
 *         copied to @p error when provided; remaining work is
 *         abandoned, already-submitted traces still drain).
 */
bool ingest(TraceSource &source, EnginePool &pool,
            const IngestOptions &options, IngestStats *ingest,
            SourceError *error = nullptr);

} // namespace pmtest::core

#endif // PMTEST_CORE_TRACE_INGEST_HH
