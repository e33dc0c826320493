/**
 * @file
 * Live metrics service tests: strict Prometheus exposition format,
 * pmtest-metrics-v2 schema of the live JSON document, snapshot
 * timestamp monotonicity, the stall watchdog (injected stall through
 * fake gauge samplers, then re-arm on progress), the structured JSONL
 * event log (round-trip parse and the unwritable-path exit-2
 * contract), and the HTTP endpoint under concurrent scrapes.
 *
 * The publisher/render/watchdog/event-log-open tests run in every
 * build configuration; the endpoint tests and event-record content
 * checks need PMTEST_TELEMETRY=ON and skip themselves otherwise.
 */

#include "obs/metrics_service.hh"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hh"
#include "obs/metrics_publisher.hh"
#include "obs/telemetry.hh"
#include "tests/obs/json_test_util.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace pmtest::obs
{
namespace
{

using test::Json;
using test::JsonParser;

/** Fake gauge state the sampler closures read; tests mutate it. */
struct FakeGauges
{
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> consumed{0};

    PoolStats
    pool() const
    {
        PoolStats g;
        g.valid = true;
        g.tracesSubmitted = submitted.load();
        g.tracesCompleted = completed.load();
        g.workers.resize(2);
        g.queuedTraces = g.tracesSubmitted - g.tracesCompleted;
        return g;
    }

    IngestGauges
    ingest() const
    {
        IngestGauges g;
        g.valid = true;
        SourceGauge s;
        s.label = "fake.trace";
        s.tracesTotal = 100;
        s.tracesTotalKnown = true;
        s.bytesTotal = 100 * 64;
        s.tracesConsumed = consumed.load();
        s.bytesConsumed = s.tracesConsumed * 64;
        s.drained = s.tracesConsumed >= s.tracesTotal;
        g.done = s.drained;
        g.sources.push_back(std::move(s));
        return g;
    }
};

PublisherOptions
fakeOptions(const FakeGauges &state)
{
    PublisherOptions o;
    o.tool = "obs_test";
    o.poolSampler = [&state] { return state.pool(); };
    o.ingestSampler = [&state] { return state.ingest(); };
    return o;
}

/** One line of Prometheus text exposition, strictly validated. */
void
checkPromLine(const std::string &line)
{
    ASSERT_FALSE(line.empty());
    if (line[0] == '#')
        return; // HELP/TYPE/comment lines are free-form
    // name{labels} value  |  name value
    size_t i = 0;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':'))
        i++;
    if (i < line.size() && line[i] == '{') {
        const size_t close = line.find('}', i);
        ASSERT_NE(close, std::string::npos) << line;
        // Labels: key="value" pairs; just require balanced quotes.
        size_t quotes = 0;
        for (size_t k = i; k <= close; k++)
            if (line[k] == '"' && line[k - 1] != '\\')
                quotes++;
        ASSERT_EQ(quotes % 2, 0u) << line;
        i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string value = line.substr(i + 1);
    ASSERT_FALSE(value.empty()) << line;
    char *end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparsable sample value: " << line;
}

/** Minimal blocking HTTP/1.0 GET against 127.0.0.1:port. */
std::string
httpGet(uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), 0);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

std::string
tempPath(const char *stem)
{
    return ::testing::TempDir() + stem + "." +
           std::to_string(::getpid()) + ".jsonl";
}

// --- renderers -----------------------------------------------------

TEST(MetricsPublisherTest, PrometheusExpositionIsStrictlyParsable)
{
    FakeGauges state;
    state.submitted = 10;
    state.completed = 4;
    state.consumed = 42;
    MetricsPublisher pub(fakeOptions(state));
    pub.tickOnceForTest();

    const std::string text = pub.renderPrometheus();
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n'); // exposition ends in a newline

    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        checkPromLine(line);

    for (const char *needle :
         {"pmtest_snapshot_nanoseconds ",
          "# TYPE pmtest_traces_checked_total counter",
          "pmtest_pool_inflight_traces 6",
          "pmtest_pool_queued_traces 6",
          "pmtest_ingest_traces_consumed 42",
          "pmtest_ingest_traces_total 100",
          "pmtest_source_traces_consumed{source=\"fake.trace\"} 42",
          "pmtest_process_resident_bytes ",
          "pmtest_traces_checked_per_second "})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing: " << needle;
}

TEST(MetricsPublisherTest, JsonDocumentMatchesMetricsV2Schema)
{
    FakeGauges state;
    state.submitted = 8;
    state.completed = 8;
    state.consumed = 100;
    MetricsPublisher pub(fakeOptions(state));
    pub.tickOnceForTest();

    Json doc;
    ASSERT_TRUE(JsonParser(pub.renderJson()).parse(&doc));
    ASSERT_EQ(doc.kind, Json::Kind::Object);

    const Json *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "pmtest-metrics-v2");
    const Json *live = doc.find("live");
    ASSERT_NE(live, nullptr);
    EXPECT_TRUE(live->boolean);
    const Json *snapshot_ns = doc.find("snapshot_ns");
    ASSERT_NE(snapshot_ns, nullptr);
    EXPECT_GT(snapshot_ns->number, 0.0);

    const Json *gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    const Json *pool = gauges->find("pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->find("in_flight")->number, 0.0);
    ASSERT_NE(pool->find("workers"), nullptr);
    EXPECT_EQ(pool->find("workers")->items.size(), 2u);

    const Json *ingest = gauges->find("ingest");
    ASSERT_NE(ingest, nullptr);
    EXPECT_EQ(ingest->find("traces_consumed")->number, 100.0);
    EXPECT_TRUE(ingest->find("done")->boolean);
    const Json *sources = ingest->find("sources");
    ASSERT_NE(sources, nullptr);
    ASSERT_EQ(sources->items.size(), 1u);
    EXPECT_EQ(sources->items[0].find("source")->text, "fake.trace");
    EXPECT_TRUE(sources->items[0].find("drained")->boolean);

    const Json *process = gauges->find("process");
    ASSERT_NE(process, nullptr);
    EXPECT_GT(process->find("rss_bytes")->number, 0.0);

    const Json *rates = doc.find("rates");
    ASSERT_NE(rates, nullptr);
    EXPECT_NE(rates->find("traces_checked_per_sec"), nullptr);
    EXPECT_NE(rates->find("bytes_consumed_per_sec"), nullptr);

    // The full registry snapshot rides along under "telemetry".
    const Json *telemetry = doc.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_NE(telemetry->find("counters"), nullptr);
}

TEST(MetricsPublisherTest, SnapshotTimestampIsMonotonic)
{
    FakeGauges state;
    MetricsPublisher pub(fakeOptions(state));
    pub.tickOnceForTest();
    const uint64_t first = pub.latest().metrics.snapshotNs;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pub.tickOnceForTest();
    const uint64_t second = pub.latest().metrics.snapshotNs;
    EXPECT_GT(first, 0u);
    EXPECT_GT(second, first);
}

// --- watchdog ------------------------------------------------------

TEST(MetricsPublisherTest, WatchdogFiresOnInjectedStallThenRearms)
{
    ScopedLogSilencer quiet;
    FakeGauges state;
    state.submitted = 10;
    state.completed = 5; // 5 in flight, and nothing ever progresses
    state.consumed = 50;

    PublisherOptions options = fakeOptions(state);
    options.stallTicks = 2;
    MetricsPublisher pub(std::move(options));

    pub.tickOnceForTest(); // baseline
    EXPECT_EQ(pub.watchdogFired(), 0u);
    pub.tickOnceForTest(); // stale x1
    EXPECT_EQ(pub.watchdogFired(), 0u);
    pub.tickOnceForTest(); // stale x2 -> fires
    EXPECT_EQ(pub.watchdogFired(), 1u);
    pub.tickOnceForTest(); // same episode: does not re-fire
    EXPECT_EQ(pub.watchdogFired(), 1u);

    state.completed = 6; // progress resumes -> watchdog re-arms
    pub.tickOnceForTest();
    EXPECT_EQ(pub.watchdogFired(), 1u);

    pub.tickOnceForTest(); // stale x1 of a new episode
    pub.tickOnceForTest(); // stale x2 -> second episode fires
    EXPECT_EQ(pub.watchdogFired(), 2u);
}

TEST(MetricsPublisherTest, WatchdogStaysQuietWhenNothingOutstanding)
{
    ScopedLogSilencer quiet;
    FakeGauges state;
    state.submitted = 10;
    state.completed = 10; // nothing in flight
    state.consumed = 100; // source drained
    PublisherOptions options = fakeOptions(state);
    options.stallTicks = 1;
    MetricsPublisher pub(std::move(options));
    for (int i = 0; i < 5; i++)
        pub.tickOnceForTest();
    EXPECT_EQ(pub.watchdogFired(), 0u);
}

// --- event log -----------------------------------------------------

TEST(EventLogTest, UnwritablePathFailsWithPathQualifiedError)
{
    EventLog log;
    std::string error;
    EXPECT_FALSE(
        log.open("/nonexistent-dir-pmtest/events.jsonl", &error));
    EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
    EXPECT_NE(error.find("/nonexistent-dir-pmtest/events.jsonl"),
              std::string::npos)
        << error;
    EXPECT_FALSE(log.active());
}

TEST(EventLogTest, RoundTripStrictJsonlRecords)
{
    const std::string path = tempPath("event_log_roundtrip");
    EventLog log;
    std::string error;
    ASSERT_TRUE(log.open(path, &error)) << error;
    ASSERT_TRUE(log.active());

    log.emit(EventSeverity::Info, "run_start", [](JsonWriter &w) {
        w.member("tool", "obs_test");
        w.member("workers", uint64_t{4});
    });
    log.emit(EventSeverity::Warn, "watchdog_stall");
    log.emit(EventSeverity::Error, "finding", [](JsonWriter &w) {
        w.member("verdict", "FAIL");
        w.member("message", "line with \"quotes\" and\nnewline");
    });
    log.close();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<Json> records;
    std::string line;
    while (std::getline(in, line)) {
        Json doc;
        ASSERT_TRUE(JsonParser(line).parse(&doc)) << line;
        ASSERT_EQ(doc.kind, Json::Kind::Object);
        records.push_back(std::move(doc));
    }
    std::remove(path.c_str());

#if PMTEST_TELEMETRY_ENABLED
    ASSERT_EQ(records.size(), 3u);
    for (const Json &r : records) {
        ASSERT_NE(r.find("ts_ms"), nullptr);
        ASSERT_NE(r.find("mono_ns"), nullptr);
        ASSERT_NE(r.find("severity"), nullptr);
        ASSERT_NE(r.find("type"), nullptr);
    }
    EXPECT_EQ(records[0].find("type")->text, "run_start");
    EXPECT_EQ(records[0].find("severity")->text, "info");
    EXPECT_EQ(records[0].find("workers")->number, 4.0);
    EXPECT_EQ(records[1].find("severity")->text, "warn");
    EXPECT_EQ(records[2].find("severity")->text, "error");
    EXPECT_EQ(records[2].find("verdict")->text, "FAIL");
#else
    // Telemetry compiled out: the log opens (flag validation stays
    // live) but emits nothing.
    EXPECT_TRUE(records.empty());
#endif
}

// --- final sample --------------------------------------------------

TEST(MetricsServiceTest, FinalSampleNeedsNoTickThreadInEveryConfig)
{
    FakeGauges state;
    state.submitted = 3;
    state.completed = 3;
    MetricsService service;
    ServiceOptions options;
    options.tool = "obs_test";
    options.finalSample = true;
    options.poolSampler = [&state] { return state.pool(); };
    ASSERT_TRUE(service.start(std::move(options)));
    ASSERT_NE(service.publisher(), nullptr);
    EXPECT_EQ(service.port(), 0u) << "no live surface was asked for";

    service.freeze();
    const GaugeSample sample = service.publisher()->latest();
    EXPECT_TRUE(sample.pool.valid);
    EXPECT_EQ(sample.pool.tracesCompleted, 3u);
    EXPECT_GT(sample.rssBytes, 0u);
}

TEST(MetricsServiceTest, NoMetricsOutputTakesNoSample)
{
    std::atomic<int> samples{0};
    MetricsService service;
    ServiceOptions options;
    options.tool = "obs_test";
    options.poolSampler = [&samples] {
        samples++;
        return PoolStats{};
    };
    ASSERT_TRUE(service.start(std::move(options)));
    EXPECT_EQ(service.publisher(), nullptr);
    service.freeze();
    service.stop();
    EXPECT_EQ(samples.load(), 0);
}

// --- HTTP endpoint -------------------------------------------------

TEST(MetricsServiceTest, UnwritableEventLogFailsStartInEveryConfig)
{
    MetricsService service;
    ServiceOptions options;
    options.tool = "obs_test";
    options.eventLogPath = "/nonexistent-dir-pmtest/events.jsonl";
    std::string error;
    EXPECT_FALSE(service.start(std::move(options), &error));
    EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
}

TEST(MetricsServiceTest, ServesBothRoutesUnderConcurrentScrapes)
{
#if PMTEST_TELEMETRY_ENABLED
    Telemetry::instance().resetForTest();
    FakeGauges state;
    state.submitted = 4;
    state.completed = 2;
    state.consumed = 10;

    MetricsService service;
    ServiceOptions options;
    options.tool = "obs_test";
    options.metricsPort = 0; // ephemeral
    options.intervalMs = 5;  // tick hard to race scrapes against it
    options.poolSampler = [&state] { return state.pool(); };
    options.ingestSampler = [&state] { return state.ingest(); };
    std::string error;
    ASSERT_TRUE(service.start(std::move(options), &error)) << error;
    const uint16_t port = service.port();
    ASSERT_NE(port, 0);

    constexpr int kThreads = 4;
    constexpr int kScrapes = 8;
    std::atomic<int> ok{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < kThreads; t++) {
        scrapers.emplace_back([&, t] {
            for (int i = 0; i < kScrapes; i++) {
                const bool json = (t + i) % 2 == 0;
                const std::string response = httpGet(
                    port, json ? "/metrics.json" : "/metrics");
                if (response.find("HTTP/1.0 200") != 0)
                    continue;
                const size_t body = response.find("\r\n\r\n");
                if (body == std::string::npos)
                    continue;
                const std::string payload = response.substr(body + 4);
                if (json) {
                    Json doc;
                    if (JsonParser(payload).parse(&doc) &&
                        doc.find("schema") &&
                        doc.find("schema")->text == "pmtest-metrics-v2")
                        ok++;
                } else if (payload.find(
                               "pmtest_snapshot_nanoseconds") !=
                           std::string::npos) {
                    ok++;
                }
            }
        });
    }
    // Keep the counters moving while the scrapers hammer the server.
    for (int i = 0; i < 200; i++) {
        count(Counter::TracesChecked);
        state.completed.fetch_add(i % 2);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (auto &th : scrapers)
        th.join();
    EXPECT_EQ(ok.load(), kThreads * kScrapes);

    service.freeze(); // frozen sample keeps serving
    const std::string after = httpGet(port, "/metrics");
    EXPECT_EQ(after.find("HTTP/1.0 200"), 0u);

    // Scrapes themselves are counted.
    EXPECT_GE(Telemetry::instance()
                  .metrics()
                  .counter(Counter::MetricsScrapes),
              uint64_t{kThreads} * kScrapes);
    service.stop();
    Telemetry::instance().resetForTest();
#else
    GTEST_SKIP() << "telemetry compiled out";
#endif
}

TEST(MetricsServiceTest, UnknownRouteIs404)
{
#if PMTEST_TELEMETRY_ENABLED
    MetricsService service;
    ServiceOptions options;
    options.tool = "obs_test";
    options.metricsPort = 0;
    options.intervalMs = 1000;
    std::string error;
    ASSERT_TRUE(service.start(std::move(options), &error)) << error;
    const std::string response = httpGet(service.port(), "/nope");
    EXPECT_EQ(response.find("HTTP/1.0 404"), 0u) << response;
    service.stop();
#else
    GTEST_SKIP() << "telemetry compiled out";
#endif
}

} // namespace
} // namespace pmtest::obs
