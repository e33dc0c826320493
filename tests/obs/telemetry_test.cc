/**
 * @file
 * Telemetry subsystem tests: histogram bucket math and merge,
 * concurrent counters, span sampling, strict JSON validity of both
 * exporters, pipeline stage coverage, and verdict neutrality.
 *
 * Everything except PipelineAllStagesExported exercises the registry
 * API directly (always compiled), so the suite passes both with
 * PMTEST_TELEMETRY=ON and =OFF.
 */

#include "obs/telemetry.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "tests/obs/json_test_util.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"
#include "util/json.hh"

namespace pmtest::obs
{
namespace
{

using test::Json;
using test::JsonParser;

// --- histogram math ------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries)
{
    // Bucket 0 holds zero-duration samples; bucket i (i >= 1) holds
    // [2^(i-1), 2^i). Check exactly at every power-of-two boundary.
    EXPECT_EQ(LatencyHistogram::bucketIndex(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1), 1u);
    for (unsigned k = 1; k < 63; k++) {
        const uint64_t pow = uint64_t{1} << k;
        EXPECT_EQ(LatencyHistogram::bucketIndex(pow - 1), k)
            << "below boundary 2^" << k;
        EXPECT_EQ(LatencyHistogram::bucketIndex(pow), k + 1)
            << "at boundary 2^" << k;
    }
    EXPECT_EQ(LatencyHistogram::bucketIndex(UINT64_MAX), 64u);

    EXPECT_EQ(HistogramSnapshot::bucketLowerBound(0), 0u);
    EXPECT_EQ(HistogramSnapshot::bucketLowerBound(1), 1u);
    EXPECT_EQ(HistogramSnapshot::bucketLowerBound(11), 1024u);
    EXPECT_EQ(HistogramSnapshot::bucketLowerBound(64),
              uint64_t{1} << 63);
}

TEST(LatencyHistogramTest, RecordPlacesSamplesInTheirBuckets)
{
    LatencyHistogram hist;
    hist.record(0);
    hist.record(1);
    hist.record(2);
    hist.record(3);
    hist.record(1000);
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.buckets[0], 1u);  // 0
    EXPECT_EQ(snap.buckets[1], 1u);  // 1
    EXPECT_EQ(snap.buckets[2], 2u);  // 2, 3
    EXPECT_EQ(snap.buckets[10], 1u); // 1000 in [512, 1024)
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 1006u);
    EXPECT_EQ(snap.max, 1000u);
}

TEST(LatencyHistogramTest, QuantilesInterpolateWithinBucket)
{
    LatencyHistogram hist;
    for (int i = 0; i < 100; i++)
        hist.record(1000); // all in [512, 1024), observed max 1000
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_DOUBLE_EQ(snap.meanNs(), 1000.0);
    for (const double p : {0.50, 0.95, 0.99}) {
        const double q = snap.quantileNs(p);
        EXPECT_GE(q, 512.0) << "p=" << p;
        EXPECT_LE(q, 1000.0) << "p=" << p; // clamped to observed max
    }
    EXPECT_LT(snap.quantileNs(0.50), snap.quantileNs(0.99));
}

TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero)
{
    const HistogramSnapshot snap = LatencyHistogram().snapshot();
    EXPECT_EQ(snap.quantileNs(0.5), 0.0);
    EXPECT_EQ(snap.meanNs(), 0.0);
}

TEST(LatencyHistogramTest, CrossThreadRecordThenMerge)
{
    LatencyHistogram a, b;
    std::thread ta([&] {
        for (int i = 0; i < 1000; i++)
            a.record(100);
    });
    std::thread tb([&] {
        for (int i = 0; i < 500; i++)
            b.record(900);
    });
    ta.join();
    tb.join();

    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 1500u);
    EXPECT_EQ(merged.sum, 1000u * 100 + 500u * 900);
    EXPECT_EQ(merged.max, 900u);
    EXPECT_EQ(merged.buckets[7], 1000u); // 100 in [64, 128)
    EXPECT_EQ(merged.buckets[10], 500u); // 900 in [512, 1024)
    // Median lands in the larger, lower bucket; p95 in the upper one.
    EXPECT_LT(merged.quantileNs(0.50), 128.0);
    EXPECT_GE(merged.quantileNs(0.95), 512.0);
}

// --- registry ------------------------------------------------------

TEST(TelemetryTest, ConcurrentCountersSumExactly)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();

    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++) {
        threads.emplace_back([&t] {
            for (int n = 0; n < kIncrements; n++) {
                t.addCount(Counter::TracesChecked);
                t.addCount(Counter::OpsChecked, 3);
            }
        });
    }
    // Concurrent reader: snapshots must be safe against recorders
    // (values racy, access not).
    std::thread reader([&t] {
        for (int n = 0; n < 50; n++)
            (void)t.metrics();
    });
    for (auto &th : threads)
        th.join();
    reader.join();

    const MetricsSnapshot snap = t.metrics();
    EXPECT_EQ(snap.counter(Counter::TracesChecked),
              uint64_t{kThreads} * kIncrements);
    EXPECT_EQ(snap.counter(Counter::OpsChecked),
              uint64_t{kThreads} * kIncrements * 3);
    EXPECT_GE(snap.threads, uint32_t{kThreads});
}

TEST(TelemetryTest, SpanSamplingKeepsOneInN)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();
    t.enableSpans(4);
    for (int i = 0; i < 100; i++)
        t.recordSpan(Stage::EngineCheck, 0, 50);
    t.disableSpans();

    const MetricsSnapshot snap = t.metrics();
    // Histogram sees every span; the timeline keeps every 4th.
    EXPECT_EQ(snap.stage(Stage::EngineCheck).count, 100u);
    EXPECT_EQ(snap.spansRecorded, 25u);
    EXPECT_EQ(snap.spansDropped, 0u);
    t.resetForTest();
}

TEST(TelemetryTest, SpansOffByDefaultButHistogramsLive)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();
    ASSERT_FALSE(t.spansEnabled());
    t.recordSpan(Stage::ReportMerge, 0, 10);
    const MetricsSnapshot snap = t.metrics();
    EXPECT_EQ(snap.stage(Stage::ReportMerge).count, 1u);
    EXPECT_EQ(snap.spansRecorded, 0u);
    t.resetForTest();
}

TEST(TelemetryTest, StageAndCounterNamesAreStable)
{
    EXPECT_STREQ(stageName(Stage::EngineCheck), "engine.check");
    EXPECT_STREQ(stageName(Stage::CaptureSeal), "capture.seal");
    EXPECT_STREQ(stageName(Stage::ReportCanonicalize),
                 "report.canonicalize");
    EXPECT_STREQ(counterName(Counter::TracesChecked),
                 "traces_checked");
    EXPECT_STREQ(counterName(Counter::SubmitStalls), "submit_stalls");
    for (size_t s = 0; s < kStageCount; s++)
        EXPECT_STRNE(stageName(static_cast<Stage>(s)), "unknown");
    for (size_t c = 0; c < kCounterCount; c++)
        EXPECT_STRNE(counterName(static_cast<Counter>(c)), "unknown");
}

// --- exporters -----------------------------------------------------

TEST(TelemetryTest, MetricsJsonIsStrictlyValid)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();
    t.addCount(Counter::TracesChecked, 7);
    t.recordSpan(Stage::EngineCheck, 0, 1000);

    JsonWriter w;
    t.writeMetricsJson(w, t.metrics());
    ASSERT_TRUE(w.balanced());

    Json doc;
    ASSERT_TRUE(JsonParser(w.str()).parse(&doc)) << w.str();
    ASSERT_EQ(doc.kind, Json::Kind::Object);

    const Json *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    for (size_t c = 0; c < kCounterCount; c++)
        EXPECT_NE(counters->find(counterName(static_cast<Counter>(c))),
                  nullptr);
    EXPECT_EQ(counters->find("traces_checked")->number, 7.0);

    const Json *stages = doc.find("stages");
    ASSERT_NE(stages, nullptr);
    for (size_t s = 0; s < kStageCount; s++) {
        const Json *stage =
            stages->find(stageName(static_cast<Stage>(s)));
        ASSERT_NE(stage, nullptr);
        for (const char *field :
             {"count", "sum_ns", "max_ns", "mean_ns", "p50_ns",
              "p95_ns", "p99_ns"})
            EXPECT_NE(stage->find(field), nullptr) << field;
    }
    EXPECT_EQ(stages->find("engine.check")->find("count")->number, 1.0);

    ASSERT_NE(doc.find("spans"), nullptr);
    ASSERT_NE(doc.find("compiled"), nullptr);
    EXPECT_EQ(doc.find("compiled")->boolean,
              PMTEST_TELEMETRY_ENABLED != 0);
    t.resetForTest();
}

TEST(TelemetryTest, TraceEventJsonIsStrictlyValid)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();
    t.setThreadName("obs \"test\" thread"); // exercise escaping
    t.enableSpans();
    const uint64_t epoch = t.epochNanos();
    t.recordSpan(Stage::EngineCheck, epoch + 1000, 500);
    t.recordSpan(Stage::ReportMerge, epoch + 2000, 250);
    t.disableSpans();

    JsonWriter w;
    t.writeTraceEventsJson(w);
    ASSERT_TRUE(w.balanced());

    Json doc;
    ASSERT_TRUE(JsonParser(w.str()).parse(&doc)) << w.str();
    ASSERT_EQ(doc.kind, Json::Kind::Object);
    ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
    EXPECT_EQ(doc.find("displayTimeUnit")->text, "ms");

    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, Json::Kind::Array);
    ASSERT_GE(events->items.size(), 3u); // >= 1 metadata + 2 spans

    size_t duration_events = 0, metadata_events = 0;
    for (const Json &e : events->items) {
        ASSERT_EQ(e.kind, Json::Kind::Object);
        // Required trace-event fields on every record.
        for (const char *field : {"name", "ph", "ts", "pid", "tid"})
            ASSERT_NE(e.find(field), nullptr) << field;
        const std::string &ph = e.find("ph")->text;
        if (ph == "X") {
            duration_events++;
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_EQ(e.find("cat")->text, "pmtest");
            EXPECT_GE(e.find("ts")->number, 0.0);
            EXPECT_GE(e.find("dur")->number, 0.0);
        } else {
            ASSERT_EQ(ph, "M");
            metadata_events++;
            EXPECT_EQ(e.find("name")->text, "thread_name");
            ASSERT_NE(e.find("args"), nullptr);
            ASSERT_NE(e.find("args")->find("name"), nullptr);
        }
    }
    EXPECT_EQ(duration_events, 2u);
    EXPECT_GE(metadata_events, 1u);
    t.resetForTest();
}

// --- pipeline coverage and verdict neutrality ----------------------

Trace
makeBuggyTrace(uint32_t id)
{
    Trace trace(id, 0);
    for (int i = 0; i < 8; i++) {
        const uint64_t addr = 64 * static_cast<uint64_t>(i);
        trace.append(PmOp::write(addr, 64));
        if (i != 3) // one un-flushed store: a real finding to compare
            trace.append(PmOp::clwb(addr, 64));
        trace.append(PmOp::sfence());
        trace.append(PmOp::isPersist(addr, 64));
    }
    return trace;
}

#if PMTEST_TELEMETRY_ENABLED
TEST(TelemetryTest, PipelineExportCoversEveryStage)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();
    t.enableSpans();

    // capture → file → mmap ingest → pool → merged report, all in
    // this process so one export sees every stage.
    TraceCapture capture(0);
    capture.start();
    std::vector<Trace> traces;
    for (uint32_t i = 0; i < 16; i++) {
        for (int r = 0; r < 8; r++) {
            const uint64_t addr = 64 * static_cast<uint64_t>(r);
            capture.record(PmOp::write(addr, 64));
            capture.record(PmOp::clwb(addr, 64));
            capture.record(PmOp::sfence());
        }
        traces.push_back(capture.seal());
    }

    const std::string path = "/tmp/pmtest_obs_pipeline_" +
                             std::to_string(getpid()) + ".trace";
    ASSERT_TRUE(saveTracesToFile(path, traces));

    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Mmap, 0, &error);
        ASSERT_NE(source, nullptr) << error;
        core::PoolOptions options;
        options.workers = 2;
        core::EnginePool pool(options);
        core::IngestOptions ingest;
        ingest.decoders = 2;
        ingest.batch = 4;
        ASSERT_TRUE(
            core::ingest(*source, pool, ingest, nullptr, nullptr));
        core::Report merged = pool.results();
        merged.canonicalize();
    }
    std::remove(path.c_str());
    t.disableSpans();

    JsonWriter w;
    t.writeTraceEventsJson(w);
    Json doc;
    ASSERT_TRUE(JsonParser(w.str()).parse(&doc));

    // Stall and steal stages only fire under backpressure/imbalance,
    // so assert the seven deterministic stages of this pipeline.
    for (const Stage stage :
         {Stage::CaptureSeal, Stage::PoolSubmit, Stage::IngestDecode,
          Stage::IngestSubmit, Stage::EngineCheck, Stage::ReportMerge,
          Stage::ReportCanonicalize}) {
        EXPECT_NE(w.str().find(std::string{"\"name\":\""} +
                               stageName(stage) + "\""),
                  std::string::npos)
            << stageName(stage) << " missing from export";
    }

    const MetricsSnapshot snap = t.metrics();
    EXPECT_EQ(snap.counter(Counter::TracesSealed), 16u);
    EXPECT_EQ(snap.counter(Counter::TracesDecoded), 16u);
    EXPECT_EQ(snap.counter(Counter::TracesChecked), 16u);
    EXPECT_EQ(snap.counter(Counter::ReportsMerged), 16u);
    t.resetForTest();
}
#endif // PMTEST_TELEMETRY_ENABLED

TEST(TelemetryTest, VerdictBytesUnchangedBySpanCollection)
{
    Telemetry &t = Telemetry::instance();
    t.resetForTest();

    std::vector<Trace> traces;
    for (uint32_t i = 0; i < 4; i++)
        traces.push_back(makeBuggyTrace(i));

    auto runCheck = [&traces] {
        core::Engine engine(core::ModelKind::X86);
        core::Report merged;
        for (const auto &trace : traces)
            merged.merge(engine.check(trace));
        merged.canonicalize();
        return merged.str();
    };

    const std::string baseline = runCheck();
    EXPECT_NE(baseline.find("FAIL"), std::string::npos)
        << "comparison must cover a non-trivial verdict";

    t.enableSpans(1);
    const std::string with_spans = runCheck();
    t.enableSpans(3);
    const std::string sampled = runCheck();
    t.disableSpans();
    const std::string after = runCheck();

    EXPECT_EQ(baseline, with_spans);
    EXPECT_EQ(baseline, sampled);
    EXPECT_EQ(baseline, after);
    t.resetForTest();
}

} // namespace
} // namespace pmtest::obs
