#include "core/trace_ingest.hh"

#include <algorithm>

#include "obs/telemetry.hh"

namespace pmtest::core
{

bool
ingest(TraceSource &source, EnginePool &pool,
       const IngestOptions &options, IngestStats *ingest,
       SourceError *error)
{
    // More caller-side threads than traces would only find the
    // source spent; an unknown-count source (live capture) gets all.
    size_t callers = std::max<size_t>(1, options.decoders);
    const size_t count = source.traceCount();
    if (count != TraceSource::kUnknownCount)
        callers = std::min(callers, std::max<size_t>(count, 1));

    IngestStats stats;
    const bool ok = pool.checkSource(source, callers, &stats, error);

    // Hand the stage counters to the pool (so its stats() snapshot
    // covers ingest) and to the caller, and flag live progress done.
    if (ok)
        obs::count(obs::Counter::SourcesIngested, source.sourceCount());
    stats.active = true;
    stats.mmapBacked = source.mmapBacked();
    stats.decoders = static_cast<uint32_t>(callers);
    stats.sources = source.sourceCount();
    stats.bytesMapped = source.sizeBytes();
    pool.recordIngest(stats);
    if (ingest)
        *ingest = stats;
    if (options.progress)
        options.progress->done.store(true, std::memory_order_release);
    return ok;
}

} // namespace pmtest::core
