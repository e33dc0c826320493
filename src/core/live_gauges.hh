/**
 * @file
 * Ingest gauge extraction. The obs layer links below core (obs → util
 * only), so MetricsPublisher cannot see TraceSource; core hands it a
 * closure over sampleIngestGauges instead (the pool sampler needs no
 * helper: it is EnginePool::stats() itself). One call is one walk of
 * the source tree — cheap enough for a 1 s tick, and thread-safe at
 * any moment of a run (consumedTraces()/consumedBytes() are atomic or
 * mutex-guarded in every source). It is also the one walk behind the
 * --stats source lines and the source_open events.
 *
 * Lifetime: sampler closures capture raw references. Call
 * MetricsService::freeze() (which final-samples and drops them)
 * before the pool/source they point at is destroyed.
 */

#ifndef PMTEST_CORE_LIVE_GAUGES_HH
#define PMTEST_CORE_LIVE_GAUGES_HH

#include "core/trace_ingest.hh"
#include "obs/metrics_doc.hh"
#include "trace/trace_source.hh"

namespace pmtest::core
{

/**
 * One-shot ingest gauge snapshot: one SourceGauge per leaf of
 * @p source (MultiTraceSource children are walked; anything else is
 * a single leaf), plus the done flag from @p progress (may be null —
 * then done stays false and unknown-total sources never report
 * drained).
 */
obs::IngestGauges sampleIngestGauges(const TraceSource &source,
                                     const IngestProgress *progress);

} // namespace pmtest::core

#endif // PMTEST_CORE_LIVE_GAUGES_HH
