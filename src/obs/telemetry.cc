#include "obs/telemetry.hh"

#include <algorithm>
#include <cstdio>

#include "util/json.hh"

namespace pmtest::obs
{

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::CaptureSeal:
        return "capture.seal";
      case Stage::PoolStall:
        return "pool.stall";
      case Stage::IngestDecode:
        return "ingest.decode";
      case Stage::EngineCheck:
        return "engine.check";
      case Stage::ReportMerge:
        return "report.merge";
      case Stage::ReportCanonicalize:
        return "report.canonicalize";
      case Stage::SourceOpen:
        return "source.open";
      case Stage::HintReplay:
        return "hint.replay";
      case Stage::OracleEnumerate:
        return "oracle.enumerate";
      case Stage::SessionOpen:
        return "session.open";
      case Stage::SessionIngest:
        return "session.ingest";
      case Stage::SessionDrain:
        return "session.drain";
      case Stage::SessionMerge:
        return "session.merge";
      case Stage::SessionCanonicalize:
        return "session.canonicalize";
      case Stage::SessionHints:
        return "session.hints";
      case Stage::SessionWrite:
        return "session.write";
      case Stage::SessionOutput:
        return "session.output";
    }
    return "unknown";
}

const char *
counterName(Counter counter)
{
    switch (counter) {
      case Counter::TracesSealed:
        return "traces_sealed";
      case Counter::OpsSealed:
        return "ops_sealed";
      case Counter::TracesSubmitted:
        return "traces_submitted";
      case Counter::SubmitStalls:
        return "submit_stalls";
      case Counter::TracesDecoded:
        return "traces_decoded";
      case Counter::TracesChecked:
        return "traces_checked";
      case Counter::OpsChecked:
        return "ops_checked";
      case Counter::ReportsMerged:
        return "reports_merged";
      case Counter::SourcesIngested:
        return "sources_ingested";
      case Counter::HintsSynthesized:
        return "hints_synthesized";
      case Counter::HintsVerified:
        return "hints_verified";
      case Counter::OracleStatesTested:
        return "oracle_states_tested";
      case Counter::OracleStatesCovered:
        return "oracle_states_covered";
      case Counter::OracleMemoHits:
        return "oracle_memo_hits";
      case Counter::WatchdogStalls:
        return "watchdog_stalls";
      case Counter::MetricsScrapes:
        return "metrics_scrapes";
      case Counter::PoolWakes:
        return "pool_wakes";
    }
    return "unknown";
}

namespace
{

uint64_t
saturatingSub(uint64_t a, uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

uint64_t
HistogramSnapshot::bucketLowerBound(size_t index)
{
    if (index == 0)
        return 0;
    if (index >= 64)
        return uint64_t{1} << 63;
    return uint64_t{1} << (index - 1);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    for (size_t i = 0; i < kHistogramBuckets; i++)
        buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
}

void
HistogramSnapshot::subtract(const HistogramSnapshot &baseline)
{
    for (size_t i = 0; i < kHistogramBuckets; i++)
        buckets[i] = saturatingSub(buckets[i], baseline.buckets[i]);
    count = saturatingSub(count, baseline.count);
    sum = saturatingSub(sum, baseline.sum);
    // max cannot be windowed; keep the raw upper bound unless the
    // window is empty.
    if (count == 0)
        max = 0;
}

double
HistogramSnapshot::quantileNs(double p) const
{
    if (count == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistogramBuckets; i++) {
        if (buckets[i] == 0)
            continue;
        const uint64_t before = cumulative;
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) < target)
            continue;
        // Interpolate within the hit bucket, assuming a uniform
        // distribution across its [lo, hi) span; the last bucket with
        // samples is clamped to the observed max instead of 2^i.
        const double lo =
            static_cast<double>(bucketLowerBound(i));
        double hi = i >= 64
                        ? static_cast<double>(max)
                        : static_cast<double>(uint64_t{1} << i);
        if (cumulative == count && max > 0)
            hi = std::min(hi, static_cast<double>(max));
        if (hi < lo)
            hi = lo;
        const double inside =
            (target - static_cast<double>(before)) /
            static_cast<double>(buckets[i]);
        return lo + (hi - lo) * inside;
    }
    return static_cast<double>(max);
}

double
HistogramSnapshot::meanNs() const
{
    if (count == 0)
        return 0;
    return static_cast<double>(sum) / static_cast<double>(count);
}

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    HistogramSnapshot snap;
    for (size_t i = 0; i < kHistogramBuckets; i++)
        snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
}

void
MetricsSnapshot::subtract(const MetricsSnapshot &baseline)
{
    for (size_t c = 0; c < kCounterCount; c++)
        counters[c] = saturatingSub(counters[c], baseline.counters[c]);
    for (size_t h = 0; h < kStageCount; h++)
        stages[h].subtract(baseline.stages[h]);
    spansRecorded = saturatingSub(spansRecorded,
                                  baseline.spansRecorded);
    spansDropped = saturatingSub(spansDropped, baseline.spansDropped);
}

Telemetry &
Telemetry::instance()
{
    // Leaky singleton: worker threads may record right up to process
    // exit, so the registry must outlive every static destructor.
    static Telemetry *registry = new Telemetry();
    return *registry;
}

Telemetry::ThreadSlot &
Telemetry::slot()
{
    thread_local ThreadSlot *cached = nullptr;
    if (cached)
        return *cached;
    auto owned = std::make_unique<ThreadSlot>();
    ThreadSlot *raw = owned.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        raw->tid = static_cast<uint32_t>(slots_.size() + 1);
        slots_.push_back(std::move(owned));
    }
    cached = raw;
    return *raw;
}

void
Telemetry::addCount(Counter c, uint64_t n)
{
    slot().counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
}

void
Telemetry::recordSpan(Stage stage, uint64_t start_ns, uint64_t dur_ns)
{
    ThreadSlot &s = slot();
    s.stages[static_cast<size_t>(stage)].record(dur_ns);
    if (!spansOn_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(s.spanMutex);
    const uint64_t every =
        std::max<uint64_t>(1, sampleEvery_.load(std::memory_order_relaxed));
    if (s.spanSeq++ % every != 0)
        return;
    if (s.spans.size() >= kMaxSpansPerThread) {
        s.spansDropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    s.spans.push_back(SpanEvent{start_ns, dur_ns, stage});
}

void
Telemetry::setThreadName(std::string name)
{
    ThreadSlot &s = slot();
    std::lock_guard<std::mutex> lock(s.spanMutex);
    s.name = std::move(name);
}

void
Telemetry::enableSpans(uint64_t sample_every)
{
    sampleEvery_.store(std::max<uint64_t>(1, sample_every),
                       std::memory_order_relaxed);
    spansOn_.store(true, std::memory_order_relaxed);
}

void
Telemetry::disableSpans()
{
    spansOn_.store(false, std::memory_order_relaxed);
}

MetricsSnapshot
Telemetry::mergedLocked() const
{
    MetricsSnapshot snap;
    snap.threads = static_cast<uint32_t>(slots_.size());
    for (const auto &s : slots_) {
        for (size_t c = 0; c < kCounterCount; c++)
            snap.counters[c] +=
                s->counters[c].load(std::memory_order_relaxed);
        for (size_t h = 0; h < kStageCount; h++)
            snap.stages[h].merge(s->stages[h].snapshot());
        snap.spansDropped +=
            s->spansDropped.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> span_lock(s->spanMutex);
        snap.spansRecorded += s->spans.size();
    }
    return snap;
}

MetricsSnapshot
Telemetry::metrics() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap = mergedLocked();
    snap.subtract(baseline_);
    snap.snapshotNs = monotonicNanos() - epochNs_;
    return snap;
}

void
Telemetry::writeMetricsJson(JsonWriter &w,
                            const MetricsSnapshot &snap) const
{
    w.beginObject();
    w.member("compiled", PMTEST_TELEMETRY_ENABLED != 0);
    w.member("snapshot_ns", snap.snapshotNs);
    w.member("threads", snap.threads);

    w.key("counters").beginObject();
    for (size_t c = 0; c < kCounterCount; c++)
        w.member(counterName(static_cast<Counter>(c)),
                 snap.counters[c]);
    w.endObject();

    w.key("stages").beginObject();
    for (size_t h = 0; h < kStageCount; h++) {
        const HistogramSnapshot &hist = snap.stages[h];
        w.key(stageName(static_cast<Stage>(h))).beginObject();
        w.member("count", hist.count);
        w.member("sum_ns", hist.sum);
        w.member("max_ns", hist.max);
        w.member("mean_ns", hist.meanNs(), 1);
        w.member("p50_ns", hist.quantileNs(0.50), 1);
        w.member("p95_ns", hist.quantileNs(0.95), 1);
        w.member("p99_ns", hist.quantileNs(0.99), 1);
        w.endObject();
    }
    w.endObject();

    w.key("spans").beginObject();
    w.member("enabled", spansEnabled());
    w.member("sample_every",
             sampleEvery_.load(std::memory_order_relaxed));
    w.member("recorded", snap.spansRecorded);
    w.member("dropped", snap.spansDropped);
    w.endObject();

    w.endObject();
}

void
Telemetry::writeTraceEventsJson(JsonWriter &w) const
{
    w.beginObject();
    w.member("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &s : slots_) {
        std::lock_guard<std::mutex> span_lock(s->spanMutex);
        // Thread-name metadata first, so viewers label the row even
        // when the thread recorded no sampled spans.
        w.beginObject();
        w.member("name", "thread_name");
        w.member("ph", "M");
        w.member("ts", uint64_t{0});
        w.member("pid", 1);
        w.member("tid", s->tid);
        w.key("args").beginObject();
        w.member("name", s->name.empty()
                             ? "thread-" + std::to_string(s->tid)
                             : s->name);
        w.endObject();
        w.endObject();
        for (const SpanEvent &e : s->spans) {
            w.beginObject();
            w.member("name", stageName(e.stage));
            w.member("cat", "pmtest");
            w.member("ph", "X");
            // Trace-event timestamps are microseconds; keep ns
            // resolution in the fraction.
            w.member("ts",
                     static_cast<double>(e.startNs - epochNs_) / 1e3,
                     3);
            w.member("dur", static_cast<double>(e.durNs) / 1e3, 3);
            w.member("pid", 1);
            w.member("tid", s->tid);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
}

bool
Telemetry::writeTraceEventsFile(const std::string &path,
                                std::string *error) const
{
    JsonWriter w;
    writeTraceEventsJson(w);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    const std::string &doc = w.str();
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok && error)
        *error = "short write to " + path;
    return ok;
}

void
Telemetry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Baseline subtraction instead of destructive zeroing: recorders
    // are never written to, so a concurrent fetch_add lands either
    // before the baseline capture (absorbed into the baseline) or
    // after it (reported by the next metrics() call) — never lost,
    // and never a store racing an increment.
    baseline_ = mergedLocked();
    for (auto &s : slots_) {
        std::lock_guard<std::mutex> span_lock(s->spanMutex);
        s->spans.clear();
        s->spanSeq = 0;
    }
    // Spans really are cleared (owner-append is spanMutex-guarded),
    // so the recorded tally restarts from zero rather than being
    // baseline-subtracted.
    baseline_.spansRecorded = 0;
}

} // namespace pmtest::obs
