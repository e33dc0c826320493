#include "obs/metrics_doc.hh"

#include <sstream>

namespace pmtest::obs
{

size_t
PoolStats::queuedTraces() const
{
    size_t total = 0;
    for (const auto &w : workers)
        total += w.queueDepth;
    return total;
}

std::string
PoolStats::str() const
{
    std::ostringstream out;
    out << "pool: " << tracesSubmitted << " submitted, "
        << tracesCompleted << " completed, " << batchesSubmitted
        << " batches, " << steals << " stolen traces in " << stealScans
        << " scans, producer stalled "
        << static_cast<double>(producerStallNanos) * 1e-6 << " ms"
        << " (capacity "
        << (queueCapacity ? std::to_string(queueCapacity) : "unbounded")
        << ")\n";
    if (ingest.active) {
        out << "ingest: " << ingest.bytesMapped << " bytes "
            << (ingest.mmapBacked ? "mmapped" : "buffered")
            << " from " << ingest.sources << " source(s), "
            << ingest.tracesDecoded << " traces decoded on "
            << ingest.decoders << " decoder(s), decode "
            << static_cast<double>(ingest.decodeNanos) * 1e-6
            << " ms, ingest stalled "
            << static_cast<double>(ingest.stallNanos) * 1e-6
            << " ms\n";
    }
    for (size_t i = 0; i < workers.size(); i++) {
        const WorkerStats &w = workers[i];
        out << "  worker " << i << ": " << w.tracesChecked
            << " traces, " << w.opsProcessed << " ops, " << w.steals
            << " stolen (" << w.stealScans << " scans), depth "
            << w.queueDepth << "\n";
    }
    return out.str();
}

uint64_t
IngestGauges::tracesTotal() const
{
    uint64_t sum = 0;
    for (const auto &s : sources)
        if (s.tracesTotalKnown)
            sum += s.tracesTotal;
    return sum;
}

bool
IngestGauges::tracesTotalKnown() const
{
    if (sources.empty())
        return false;
    for (const auto &s : sources)
        if (!s.tracesTotalKnown)
            return false;
    return true;
}

uint64_t
IngestGauges::bytesTotal() const
{
    uint64_t sum = 0;
    for (const auto &s : sources)
        sum += s.bytesTotal;
    return sum;
}

uint64_t
IngestGauges::tracesConsumed() const
{
    uint64_t sum = 0;
    for (const auto &s : sources)
        sum += s.tracesConsumed;
    return sum;
}

uint64_t
IngestGauges::bytesConsumed() const
{
    uint64_t sum = 0;
    for (const auto &s : sources)
        sum += s.bytesConsumed;
    return sum;
}

size_t
IngestGauges::drainedSources() const
{
    size_t n = 0;
    for (const auto &s : sources)
        if (s.drained)
            n++;
    return n;
}

void
writePoolStatsJson(JsonWriter &w, const PoolStats &stats)
{
    w.beginObject();
    w.member("valid", stats.valid);
    w.member("traces_submitted", stats.tracesSubmitted);
    w.member("traces_completed", stats.tracesCompleted);
    w.member("in_flight", stats.inFlight());
    w.member("queued_traces", stats.queuedTraces());
    w.member("batches", stats.batchesSubmitted);
    w.member("steals", stats.steals);
    w.member("steal_scans", stats.stealScans);
    w.member("producer_stall_ms",
             static_cast<double>(stats.producerStallNanos) * 1e-6, 3);
    w.member("queue_capacity", stats.queueCapacity);
    if (stats.ingest.active) {
        const IngestStats &in = stats.ingest;
        w.key("ingest").beginObject();
        w.member("mmap_backed", in.mmapBacked);
        w.member("decoders", in.decoders);
        w.member("sources", in.sources);
        w.member("bytes_mapped", in.bytesMapped);
        w.member("traces_decoded", in.tracesDecoded);
        w.member("decode_ms",
                 static_cast<double>(in.decodeNanos) * 1e-6, 3);
        w.member("stall_ms",
                 static_cast<double>(in.stallNanos) * 1e-6, 3);
        w.endObject();
    }
    w.key("workers").beginArray();
    for (const WorkerStats &worker : stats.workers) {
        w.beginObject();
        w.member("traces", worker.tracesChecked);
        w.member("ops", worker.opsProcessed);
        w.member("steals", worker.steals);
        w.member("steal_scans", worker.stealScans);
        w.member("queue_depth", worker.queueDepth);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
renderMetricsJson(JsonWriter &w, const GaugeSample &sample,
                  const std::string &tool, const ExitBlocks *exit)
{
    w.beginObject();
    w.member("schema", "pmtest-metrics-v2");
    w.member("tool", tool);
    w.member("live", exit == nullptr);
    w.member("snapshot_ns", sample.metrics.snapshotNs);
    if (exit) {
        w.key("run").beginObject();
        if (exit->run)
            exit->run(w);
        w.endObject();
        w.key("verdict").beginObject();
        if (exit->verdict)
            exit->verdict(w);
        w.endObject();
    }

    w.key("gauges").beginObject();
    w.key("pool");
    writePoolStatsJson(w, sample.pool);

    const IngestGauges &ingest = sample.ingest;
    w.key("ingest").beginObject();
    w.member("valid", ingest.valid);
    w.member("done", ingest.done);
    w.member("traces_consumed", ingest.tracesConsumed());
    w.member("traces_total", ingest.tracesTotal());
    w.member("traces_total_known", ingest.tracesTotalKnown());
    w.member("bytes_consumed", ingest.bytesConsumed());
    w.member("bytes_total", ingest.bytesTotal());
    w.member("sources_drained",
             static_cast<uint64_t>(ingest.drainedSources()));
    w.key("sources").beginArray();
    for (const auto &s : ingest.sources) {
        w.beginObject();
        w.member("source", s.label);
        w.member("traces_consumed", s.tracesConsumed);
        w.member("traces_total", s.tracesTotal);
        w.member("traces_total_known", s.tracesTotalKnown);
        w.member("ops_total", s.opsTotal);
        w.member("bytes_consumed", s.bytesConsumed);
        w.member("bytes_total", s.bytesTotal);
        w.member("mmap_backed", s.mmapBacked);
        w.member("drained", s.drained);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("process").beginObject();
    w.member("rss_bytes", sample.rssBytes);
    w.member("heap_bytes", sample.heapBytes);
    w.endObject();
    w.endObject(); // gauges

    w.key("rates").beginObject();
    w.member("traces_checked_per_sec", sample.tracesCheckedPerSec);
    w.member("ops_checked_per_sec", sample.opsCheckedPerSec);
    w.member("traces_decoded_per_sec", sample.tracesDecodedPerSec);
    w.member("bytes_consumed_per_sec", sample.bytesConsumedPerSec);
    w.endObject();

    w.key("telemetry");
    Telemetry::instance().writeMetricsJson(w, sample.metrics);
    w.endObject();
}

} // namespace pmtest::obs
