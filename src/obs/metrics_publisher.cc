#include "obs/metrics_publisher.hh"

#include <cstdio>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unistd.h>

#include "util/logging.hh"

namespace pmtest::obs
{

namespace
{

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
promEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

void
promLine(std::string &out, const std::string &name, uint64_t value)
{
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
}

void
promLine(std::string &out, const std::string &name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out += name;
    out += ' ';
    out += buf;
    out += '\n';
}

/** Current resident set size in bytes, from /proc/self/statm. */
uint64_t
sampleRssBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long total = 0, resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<uint64_t>(resident) *
           static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** Heap bytes currently held from the allocator, when knowable. */
uint64_t
sampleHeapBytes()
{
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<uint64_t>(mi.uordblks) +
           static_cast<uint64_t>(mi.hblkhd);
#else
    return 0;
#endif
}

} // namespace

MetricsPublisher::MetricsPublisher(PublisherOptions options)
    : options_(std::move(options))
{
}

MetricsPublisher::~MetricsPublisher()
{
    stop();
}

void
MetricsPublisher::start()
{
    if (running_)
        return;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stopRequested_ = false;
    }
    running_ = true;
    thread_ = std::thread([this] {
        while (true) {
            {
                std::unique_lock<std::mutex> lock(wakeMutex_);
                wakeCv_.wait_for(
                    lock, std::chrono::milliseconds(options_.intervalMs),
                    [this] { return stopRequested_; });
                if (stopRequested_)
                    return;
            }
            tick();
        }
    });
}

void
MetricsPublisher::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stopRequested_ = true;
    }
    wakeCv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    running_ = false;
}

void
MetricsPublisher::freeze()
{
    stop();
    tick(); // final sample while the sampled objects are still alive
    if (options_.progress)
        std::fputc('\n', stderr); // leave the progress line intact
    options_.poolSampler = nullptr;
    options_.ingestSampler = nullptr;
}

GaugeSample
MetricsPublisher::takeSample()
{
    GaugeSample sample;
    sample.metrics = Telemetry::instance().metrics();
    if (options_.poolSampler)
        sample.pool = options_.poolSampler();
    if (options_.ingestSampler)
        sample.ingest = options_.ingestSampler();
    sample.rssBytes = sampleRssBytes();
    sample.heapBytes = sampleHeapBytes();
    return sample;
}

void
MetricsPublisher::tick()
{
    GaugeSample sample = takeSample();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (hasPrev_) {
            const uint64_t dt_ns =
                sample.metrics.snapshotNs > latest_.metrics.snapshotNs
                    ? sample.metrics.snapshotNs -
                          latest_.metrics.snapshotNs
                    : 0;
            if (dt_ns > 0) {
                const double dt = dt_ns * 1e-9;
                auto rate = [&](uint64_t now, uint64_t before) {
                    return now > before ? (now - before) / dt : 0.0;
                };
                sample.tracesCheckedPerSec =
                    rate(sample.metrics.counter(Counter::TracesChecked),
                         latest_.metrics.counter(
                             Counter::TracesChecked));
                sample.opsCheckedPerSec =
                    rate(sample.metrics.counter(Counter::OpsChecked),
                         latest_.metrics.counter(Counter::OpsChecked));
                sample.tracesDecodedPerSec =
                    rate(sample.metrics.counter(Counter::TracesDecoded),
                         latest_.metrics.counter(
                             Counter::TracesDecoded));
                sample.bytesConsumedPerSec =
                    rate(sample.ingest.bytesConsumed(),
                         latest_.ingest.bytesConsumed());
            }
        }
    }

    runWatchdog(sample);
    emitSourceEvents(sample);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        hasPrev_ = true;
        latest_ = sample;
    }

    if (options_.progress)
        paintProgress(sample);
}

void
MetricsPublisher::runWatchdog(const GaugeSample &sample)
{
    // Progress signature: any of these moving means the pipeline is
    // alive. Gauge-only progress (queue rebalancing) deliberately
    // does not count — shuffling queued work is not progress.
    const uint64_t sig =
        sample.metrics.counter(Counter::TracesDecoded) +
        sample.metrics.counter(Counter::TracesChecked) +
        sample.metrics.counter(Counter::ReportsMerged) +
        sample.pool.tracesCompleted + sample.ingest.tracesConsumed() +
        sample.ingest.bytesConsumed();

    const bool ingest_outstanding =
        sample.ingest.valid && !sample.ingest.done &&
        sample.ingest.drainedSources() < sample.ingest.sources.size();
    const bool pool_outstanding =
        sample.pool.valid && sample.pool.inFlight() > 0;
    const bool outstanding = ingest_outstanding || pool_outstanding;

    const bool first_tick = !sigValid_;
    sigValid_ = true;
    if (first_tick || sig != lastProgressSig_ || !outstanding) {
        lastProgressSig_ = sig;
        staleTicks_ = 0;
        stallActive_ = false;
        return;
    }

    staleTicks_++;
    if (staleTicks_ < options_.stallTicks || stallActive_)
        return;
    stallActive_ = true;

    const char *stage = pool_outstanding ? "engine.check"
                                         : "ingest.decode";
    warn("metrics watchdog: no pipeline progress for " +
         std::to_string(staleTicks_) + " ticks (" +
         std::to_string(staleTicks_ * options_.intervalMs) + " ms): " +
         stage + " stalled with " +
         std::to_string(sample.pool.inFlight()) +
         " traces in flight, " +
         std::to_string(sample.ingest.drainedSources()) + "/" +
         std::to_string(sample.ingest.sources.size()) +
         " sources drained");
    count(Counter::WatchdogStalls);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        watchdogFired_++;
    }
    if (options_.eventLog) {
        options_.eventLog->emit(
            EventSeverity::Warn, "watchdog_stall", [&](JsonWriter &w) {
                w.member("stage", stage);
                w.member("stale_ticks",
                         static_cast<uint64_t>(staleTicks_));
                w.member("stale_ms",
                         staleTicks_ * options_.intervalMs);
                w.member("in_flight", sample.pool.inFlight());
                w.member("queued", sample.pool.queuedTraces);
                w.member("sources_drained",
                         static_cast<uint64_t>(
                             sample.ingest.drainedSources()));
                w.member("sources",
                         static_cast<uint64_t>(
                             sample.ingest.sources.size()));
            });
    }
}

void
MetricsPublisher::emitSourceEvents(const GaugeSample &sample)
{
    if (!options_.eventLog || !sample.ingest.valid)
        return;
    const auto &sources = sample.ingest.sources;
    if (sourceDrained_.size() != sources.size())
        sourceDrained_.assign(sources.size(), false);
    for (size_t i = 0; i < sources.size(); i++) {
        if (!sources[i].drained || sourceDrained_[i])
            continue;
        sourceDrained_[i] = true;
        options_.eventLog->emit(
            EventSeverity::Info, "source_eof", [&](JsonWriter &w) {
                w.member("source", sources[i].label);
                w.member("traces_consumed", sources[i].tracesConsumed);
                w.member("bytes_consumed", sources[i].bytesConsumed);
            });
    }
}

void
MetricsPublisher::paintProgress(const GaugeSample &sample) const
{
    std::string line = "\r[" + options_.tool + "]";
    const uint64_t consumed = sample.ingest.tracesConsumed();
    if (sample.ingest.valid && sample.ingest.tracesTotalKnown()) {
        const uint64_t total = sample.ingest.tracesTotal();
        const unsigned pct =
            total ? static_cast<unsigned>(consumed * 100 / total) : 100;
        line += " " + std::to_string(consumed) + "/" +
                std::to_string(total) + " traces (" +
                std::to_string(pct) + "%)";
    } else if (sample.ingest.valid) {
        line += " " + std::to_string(consumed) + " traces";
    }
    if (sample.pool.valid) {
        line += " | in-flight " + std::to_string(sample.pool.inFlight());
        line += " | queued " +
                std::to_string(sample.pool.queuedTraces);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | %.0f tr/s",
                  sample.tracesCheckedPerSec);
    line += buf;
    line += " | rss " +
            std::to_string(sample.rssBytes / (1024 * 1024)) + " MiB";
    line += "   "; // wipe leftovers from a longer previous paint
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

GaugeSample
MetricsPublisher::latest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return latest_;
}

uint64_t
MetricsPublisher::watchdogFired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return watchdogFired_;
}

std::string
MetricsPublisher::renderPrometheus() const
{
    const GaugeSample sample = latest();
    const MetricsSnapshot &m = sample.metrics;
    std::string out;
    out.reserve(4096);

    out += "# pmtest live metrics (" + options_.tool + ")\n";
    promLine(out, "pmtest_snapshot_nanoseconds", m.snapshotNs);

    for (size_t i = 0; i < kCounterCount; i++) {
        const std::string name =
            std::string("pmtest_") +
            counterName(static_cast<Counter>(i)) + "_total";
        out += "# TYPE " + name + " counter\n";
        promLine(out, name, m.counters[i]);
    }

    promLine(out, "pmtest_spans_recorded_total", m.spansRecorded);
    promLine(out, "pmtest_spans_dropped_total", m.spansDropped);
    promLine(out, "pmtest_telemetry_threads",
             static_cast<uint64_t>(m.threads));

    out += "# TYPE pmtest_stage_latency_nanoseconds summary\n";
    for (size_t i = 0; i < kStageCount; i++) {
        const HistogramSnapshot &h = m.stages[i];
        if (h.count == 0)
            continue;
        const std::string label =
            std::string("{stage=\"") +
            promEscape(stageName(static_cast<Stage>(i))) + "\"";
        for (double q : {0.5, 0.95, 0.99}) {
            char qbuf[32];
            std::snprintf(qbuf, sizeof(qbuf), ",quantile=\"%g\"}", q);
            promLine(out,
                     "pmtest_stage_latency_nanoseconds" + label + qbuf,
                     h.quantileNs(q));
        }
        promLine(out,
                 "pmtest_stage_latency_nanoseconds_sum" + label + "}",
                 h.sum);
        promLine(out,
                 "pmtest_stage_latency_nanoseconds_count" + label + "}",
                 h.count);
    }

    if (sample.pool.valid) {
        promLine(out, "pmtest_pool_inflight_traces",
                 sample.pool.inFlight());
        promLine(out, "pmtest_pool_queued_traces",
                 sample.pool.queuedTraces);
        promLine(out, "pmtest_pool_traces_submitted",
                 sample.pool.tracesSubmitted);
        promLine(out, "pmtest_pool_traces_completed",
                 sample.pool.tracesCompleted);
    }

    if (sample.ingest.valid) {
        promLine(out, "pmtest_ingest_traces_consumed",
                 sample.ingest.tracesConsumed());
        if (sample.ingest.tracesTotalKnown())
            promLine(out, "pmtest_ingest_traces_total",
                     sample.ingest.tracesTotal());
        promLine(out, "pmtest_ingest_bytes_consumed",
                 sample.ingest.bytesConsumed());
        promLine(out, "pmtest_ingest_bytes_total",
                 sample.ingest.bytesTotal());
        promLine(out, "pmtest_ingest_sources",
                 static_cast<uint64_t>(sample.ingest.sources.size()));
        promLine(out, "pmtest_ingest_sources_drained",
                 static_cast<uint64_t>(sample.ingest.drainedSources()));
        promLine(out, "pmtest_ingest_done",
                 static_cast<uint64_t>(sample.ingest.done ? 1 : 0));
        for (const auto &s : sample.ingest.sources) {
            const std::string label =
                "{source=\"" + promEscape(s.label) + "\"}";
            promLine(out, "pmtest_source_traces_consumed" + label,
                     s.tracesConsumed);
            promLine(out, "pmtest_source_bytes_consumed" + label,
                     s.bytesConsumed);
        }
    }

    promLine(out, "pmtest_process_resident_bytes", sample.rssBytes);
    promLine(out, "pmtest_process_heap_bytes", sample.heapBytes);

    promLine(out, "pmtest_traces_checked_per_second",
             sample.tracesCheckedPerSec);
    promLine(out, "pmtest_ops_checked_per_second",
             sample.opsCheckedPerSec);
    promLine(out, "pmtest_traces_decoded_per_second",
             sample.tracesDecodedPerSec);
    promLine(out, "pmtest_ingest_bytes_per_second",
             sample.bytesConsumedPerSec);
    return out;
}

std::string
MetricsPublisher::renderJson() const
{
    JsonWriter w;
    renderMetricsJson(w, latest(), options_.tool);
    return w.str();
}

} // namespace pmtest::obs
