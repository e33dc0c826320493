/**
 * @file
 * The pmtest-metrics-v2 document: the plain structs a GaugeSample
 * carries and renderMetricsJson(), the one function that renders a
 * sample — as the live /metrics.json document, as the exit document
 * of `pmtest_check --metrics-json` (the frozen final sample plus
 * "run" and "verdict"), and as the bench snapshots (empty gauges, the
 * scale in "run"). The dispatch counters live here, below core (obs
 * links only util), so EnginePool::stats() is the pool sampler as
 * is; core aliases them as core::PoolStats, WorkerStats, IngestStats.
 */

#ifndef PMTEST_OBS_METRICS_DOC_HH
#define PMTEST_OBS_METRICS_DOC_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "util/json.hh"

namespace pmtest::obs
{

/** Point-in-time dispatch statistics for one worker. */
struct WorkerStats
{
    uint64_t tracesChecked = 0; ///< traces this worker completed
    uint64_t opsProcessed = 0;  ///< PM ops this worker processed
};

/**
 * Counters of the ingest stage checking on a pool: core::ingest()
 * records them on the pool, so one PoolStats snapshot describes the
 * whole load→verdict pipeline — how the bytes came in and how long
 * decoding took.
 */
struct IngestStats
{
    bool active = false;      ///< an ingest stage ran (renders stats)
    bool mmapBacked = false;  ///< all bytes were mmap'd (vs buffers)
    uint32_t decoders = 0;    ///< ingest-side checking threads used
    size_t sources = 1;       ///< leaf sources (files/shards) drained
    uint64_t bytesMapped = 0; ///< file bytes mapped/buffered
    uint64_t tracesDecoded = 0; ///< traces claimed from the source
    uint64_t decodeNanos = 0; ///< decode time summed over threads
    /**
     * Always 0: ingest has no queues to stall on. It remains only
     * while bench/pipeline still reads it.
     */
    uint64_t stallNanos = 0;
};

/** Point-in-time snapshot of an engine pool's dispatch behaviour. */
struct PoolStats
{
    bool valid = false;             ///< taken from a live pool
    /** Pool workers (or the inline engine), then source lanes. */
    std::vector<WorkerStats> workers;
    IngestStats ingest;             ///< offline file-ingest counters
    uint64_t tracesSubmitted = 0;   ///< traces accepted by submit()
                                    ///< or claimed from a source
    uint64_t tracesCompleted = 0;   ///< traces fully checked
    uint64_t producerStallNanos = 0;///< time producers blocked on
                                    ///< the full queue (backpressure)
    size_t queueCapacity = 0;       ///< queue bound (0 = none)
    size_t queuedTraces = 0;        ///< traces waiting in the queue
    /**
     * Always 0: the pool does not steal. It remains only while
     * bench/pipeline still reads it.
     */
    uint64_t steals = 0;

    /** Traces submitted but not yet fully checked. */
    uint64_t
    inFlight() const
    {
        return tracesSubmitted > tracesCompleted
                   ? tracesSubmitted - tracesCompleted
                   : 0;
    }

    /** Multi-line human-readable rendering (the --stats text). */
    std::string str() const;
};

/** Progress of one leaf trace source. */
struct SourceGauge
{
    std::string label;           ///< path, or "<capture>"
    uint64_t tracesTotal = 0;    ///< 0 when unknown (live capture)
    bool tracesTotalKnown = false;
    uint64_t opsTotal = 0;       ///< 0 when unknown
    uint64_t bytesTotal = 0;     ///< 0 when unknown
    bool mmapBacked = false;
    uint64_t tracesConsumed = 0;
    uint64_t bytesConsumed = 0;
    bool drained = false;        ///< source fully consumed
};

/** Ingest-side gauges sampled from the TraceSource tree. */
struct IngestGauges
{
    bool valid = false; ///< an ingest sampler is attached and sampled
    bool done = false;  ///< core::ingest() has returned
    std::vector<SourceGauge> sources; ///< one per leaf source

    uint64_t tracesTotal() const;    ///< sum over known-total leaves
    bool tracesTotalKnown() const;   ///< every leaf knows its total
    uint64_t bytesTotal() const;
    uint64_t tracesConsumed() const;
    uint64_t bytesConsumed() const;
    size_t drainedSources() const;
};

/** One sample: registry snapshot + gauges + derived rates. */
struct GaugeSample
{
    MetricsSnapshot metrics;
    PoolStats pool;
    IngestGauges ingest;
    uint64_t rssBytes = 0;  ///< process resident set (/proc/self/statm)
    uint64_t heapBytes = 0; ///< malloc arena bytes held (mallinfo2)

    // Rates over the window ending at this sample (0 on the first).
    double tracesCheckedPerSec = 0;
    double opsCheckedPerSec = 0;
    double tracesDecodedPerSec = 0;
    double bytesConsumedPerSec = 0;
};

/** Writers of an exit document's "run" and "verdict" members. */
struct ExitBlocks
{
    std::function<void(JsonWriter &)> run;
    std::function<void(JsonWriter &)> verdict;
};

/**
 * Append @p stats as one JSON object: totals, an "ingest" object when
 * an ingest stage ran, and a per-worker array.
 */
void writePoolStatsJson(JsonWriter &w, const PoolStats &stats);

/**
 * Render @p sample into the empty writer @p w: the live document
 * without @p exit; with it, the exit document ("live": false) with
 * "run" and "verdict" objects (empty for a null writer).
 */
void renderMetricsJson(JsonWriter &w, const GaugeSample &sample,
                       const std::string &tool,
                       const ExitBlocks *exit = nullptr);

} // namespace pmtest::obs

#endif // PMTEST_OBS_METRICS_DOC_HH
