/**
 * @file
 * The check-session layer: CheckPlan validation (a missing input is
 * a usage error, input errors come without the usage hint), the
 * wire report a plain session writes with --report-out, the exit
 * metrics document (--metrics-json), which must be the live
 * /metrics.json document plus "run" and "verdict" blocks, the event
 * log of a failed run (closed by run_stop with exit code 2), and the
 * session.* stage spans, which must add up to the run's wall time.
 */

#include "core/check_session.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "core/report_io.hh"
#include "obs/telemetry.hh"
#include "obs/metrics_publisher.hh"
#include "tests/obs/json_test_util.hh"
#include "trace/seed_corpus.hh"
#include "trace/trace_io.hh"
#include "util/clock.hh"

namespace pmtest::core
{
namespace
{

/** Write the seed corpus to a temp v2 trace file, returning its path. */
std::string
corpusFile(const char *name)
{
    const std::string path = testing::TempDir() + name;
    std::vector<SeedTrace> corpus = seedCorpusTraces();
    std::vector<Trace> traces;
    for (SeedTrace &seed : corpus)
        traces.push_back(std::move(seed.trace));
    EXPECT_TRUE(saveTracesToFile(path, traces));
    return path;
}

CheckPlan
quietPlan(const std::string &input)
{
    CheckPlan plan;
    plan.inputArgs = {input};
    plan.quiet = true;
    plan.workers = 2;
    return plan;
}

/**
 * Every object key of @p doc as a dotted path; array elements share
 * their array's path, so "gauges.pool.workers.ops" stands for the ops
 * key of every worker.
 */
void
keyPaths(const test::Json &doc, const std::string &prefix,
         std::set<std::string> *out)
{
    for (const auto &[key, value] : doc.members) {
        out->insert(prefix + key);
        keyPaths(value, prefix + key + ".", out);
    }
    for (const test::Json &item : doc.items)
        keyPaths(item, prefix, out);
}

test::Json
parseJsonFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    test::Json doc;
    EXPECT_TRUE(test::JsonParser(text.str()).parse(&doc)) << path;
    return doc;
}

TEST(CheckPlanTest, MissingInputIsAUsageError)
{
    CheckPlan plan;
    std::string error;
    bool usage = false;
    EXPECT_FALSE(plan.finalize(&error, &usage));
    EXPECT_EQ(error, "missing input trace file");
    EXPECT_TRUE(usage);
}

TEST(CheckPlanTest, EmptyDirectoryIsNotAUsageError)
{
    const std::string dir = testing::TempDir() + "plan_empty_dir";
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
    CheckPlan plan;
    plan.inputArgs = {dir};
    std::string error;
    bool usage = true;
    EXPECT_FALSE(plan.finalize(&error, &usage));
    EXPECT_NE(error.find("no trace files"), std::string::npos)
        << error;
    EXPECT_FALSE(usage) << "input errors do not reprint usage";
    rmdir(dir.c_str());
}

TEST(CheckPlanTest, DuplicateInputsRejected)
{
    const std::string path = corpusFile("plan_dup.trace");
    CheckPlan plan;
    plan.inputArgs = {path, path};
    std::string error;
    EXPECT_FALSE(plan.finalize(&error));
    EXPECT_NE(error.find("duplicate input"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CheckPlanTest, ValidPlanExpandsInputs)
{
    const std::string path = corpusFile("plan_ok.trace");
    CheckPlan plan = quietPlan(path);
    std::string error;
    EXPECT_TRUE(plan.finalize(&error)) << error;
    ASSERT_EQ(plan.inputs.size(), 1u);
    EXPECT_EQ(plan.inputs[0], path);
    std::remove(path.c_str());
}

TEST(CheckSessionTest, PlainSessionWritesWireReport)
{
    const std::string path = corpusFile("session_plain.trace");
    const std::string report_path =
        testing::TempDir() + "session_plain.report";
    CheckPlan plan = quietPlan(path);
    plan.reportOutPath = report_path;
    std::string error;
    ASSERT_TRUE(plan.finalize(&error)) << error;
    EXPECT_EQ(runCheckTool(plan), 1) << "seed corpus has FAILs";

    Report report;
    ReportMeta meta;
    ASSERT_TRUE(loadReportFile(report_path, &report, &meta, &error))
        << error;
    EXPECT_GT(report.failCount(), 0u);
    EXPECT_EQ(meta.workerCount, 0u) << "always 0 on the wire";
    EXPECT_EQ(meta.traceCount, seedCorpusTraces().size());
    EXPECT_EQ(meta.sourceCount, 1u);
    std::remove(path.c_str());
    std::remove(report_path.c_str());
}

TEST(CheckSessionTest, ExitMetricsDocumentIsTheLiveDocumentPlusRun)
{
    const std::string path = corpusFile("session_metrics.trace");
    const std::string report_path =
        testing::TempDir() + "session_metrics.report";
    const std::string metrics_path =
        testing::TempDir() + "session_metrics.json";
    CheckPlan plan = quietPlan(path);
    plan.reportOutPath = report_path;
    plan.metricsJsonPath = metrics_path;
    std::string error;
    ASSERT_TRUE(plan.finalize(&error)) << error;
    EXPECT_EQ(runCheckTool(plan), 1) << "seed corpus has FAILs";
    Report report;
    ReportMeta meta;
    ASSERT_TRUE(loadReportFile(report_path, &report, &meta, &error))
        << error;

    const test::Json doc = parseJsonFile(metrics_path);
    ASSERT_EQ(doc.kind, test::Json::Kind::Object);
    EXPECT_EQ(doc.find("schema")->text, "pmtest-metrics-v2");
    EXPECT_FALSE(doc.find("live")->boolean);
    const test::Json *verdict = doc.find("verdict");
    ASSERT_NE(verdict, nullptr);
    EXPECT_EQ(verdict->find("fail")->number, report.failCount());
    EXPECT_EQ(verdict->find("warn")->number, report.warnCount());
    EXPECT_EQ(verdict->find("findings")->number,
              report.findings().size());
    const double traces = seedCorpusTraces().size();
    EXPECT_EQ(doc.find("run")->find("traces")->number, traces);
    const test::Json *pool = doc.find("gauges")->find("pool");
    EXPECT_TRUE(pool->find("valid")->boolean);
    EXPECT_EQ(pool->find("traces_completed")->number, traces);
    EXPECT_EQ(pool->find("ingest")->find("traces_decoded")->number,
              traces);

    // The live document of a publisher sampling a pool that ran an
    // ingest stage and one file source: the same keys, less run and
    // verdict.
    obs::PublisherOptions options;
    options.poolSampler = [] {
        obs::PoolStats stats;
        stats.valid = true;
        stats.ingest.active = true;
        stats.workers.resize(2);
        return stats;
    };
    options.ingestSampler = [] {
        obs::IngestGauges gauges;
        gauges.valid = true;
        gauges.sources.resize(1);
        return gauges;
    };
    obs::MetricsPublisher publisher(std::move(options));
    publisher.tickOnceForTest();
    test::Json live;
    ASSERT_TRUE(test::JsonParser(publisher.renderJson()).parse(&live));

    std::set<std::string> exit_keys, live_keys;
    keyPaths(doc, "", &exit_keys);
    keyPaths(live, "", &live_keys);
    const auto exit_block = [](const std::string &key) {
        for (const std::string block : {"run", "verdict"})
            if (key == block || key.rfind(block + ".", 0) == 0)
                return true;
        return false;
    };
    for (const auto &key : exit_keys)
        if (!exit_block(key))
            EXPECT_EQ(live_keys.count(key), 1u) << "exit only: " << key;
    for (const auto &key : live_keys)
        EXPECT_EQ(exit_keys.count(key), 1u) << "live only: " << key;
    EXPECT_EQ(exit_keys.count("run"), 1u);
    EXPECT_EQ(exit_keys.count("verdict"), 1u);

    std::remove(path.c_str());
    std::remove(report_path.c_str());
    std::remove(metrics_path.c_str());
}

/** The non-empty lines of @p path. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(CheckSessionTest, FailedRunClosesTheEventLogWithRunStop)
{
    // A corrupt op count in the first trace's frame body: the file
    // opens (the CRC covers the index) and decode fails in ingest.
    const std::string good = corpusFile("session_fail_good.trace");
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const size_t op_count_high =
        TraceWire::kHeaderBytes + sizeof(uint64_t) /* frame_len */ +
        sizeof(uint64_t) /* id */ + sizeof(uint32_t) /* thread */ + 3;
    bytes[op_count_high] = static_cast<char>(bytes[op_count_high] ^ 0xff);
    const std::string corrupt =
        testing::TempDir() + "session_fail_corrupt.trace";
    std::ofstream(corrupt, std::ios::binary) << bytes;

    // Fails twice over (ingest and the --report-out write), and the
    // write failure alone: each run must still end with run_stop.
    for (const std::string &input : {corrupt, good}) {
        const std::string events =
            testing::TempDir() + "session_fail_events.jsonl";
        std::remove(events.c_str());
        CheckPlan plan = quietPlan(input);
        plan.reportOutPath = "/nonexistent-dir/session_fail.report";
        plan.eventLogPath = events;
        std::string error;
        ASSERT_TRUE(plan.finalize(&error)) << error;
        EXPECT_EQ(runCheckTool(plan), 2) << input;

        const std::vector<std::string> lines = readLines(events);
        if (!PMTEST_TELEMETRY_ENABLED) {
            EXPECT_TRUE(lines.empty()) << "events compile out";
            continue;
        }
        ASSERT_GE(lines.size(), 2u) << input;
        test::Json first, last;
        ASSERT_TRUE(test::JsonParser(lines.front()).parse(&first));
        ASSERT_TRUE(test::JsonParser(lines.back()).parse(&last));
        EXPECT_EQ(first.find("type")->text, "run_start");
        EXPECT_EQ(last.find("type")->text, "run_stop") << input;
        ASSERT_NE(last.find("exit_code"), nullptr);
        EXPECT_EQ(last.find("exit_code")->number, 2.0);
        std::remove(events.c_str());
    }
    std::remove(good.c_str());
    std::remove(corrupt.c_str());
}

TEST(CheckSessionTest, StageTimesAddUpToTheRunWallTime)
{
#if PMTEST_TELEMETRY_ENABLED
    const std::string path = corpusFile("session_stages.trace");
    const std::string report_path =
        testing::TempDir() + "session_stages.report";
    CheckPlan plan = quietPlan(path);
    plan.reportOutPath = report_path;
    std::string error;
    ASSERT_TRUE(plan.finalize(&error)) << error;

    obs::Telemetry &registry = obs::Telemetry::instance();
    const obs::MetricsSnapshot before = registry.metrics();
    Timer wall;
    EXPECT_EQ(runCheckTool(plan), 1);
    const uint64_t wall_ns = wall.elapsedNs();
    obs::MetricsSnapshot delta = registry.metrics();
    delta.subtract(before);

    using S = obs::Stage;
    uint64_t stage_ns = 0;
    for (const S stage :
         {S::SessionOpen, S::SessionIngest, S::SessionDrain,
          S::SessionMerge, S::SessionCanonicalize, S::SessionHints,
          S::SessionWrite, S::SessionOutput}) {
        EXPECT_EQ(delta.stage(stage).count, 1u)
            << obs::stageName(stage);
        stage_ns += delta.stage(stage).sum;
    }
    EXPECT_LE(stage_ns, wall_ns);
    EXPECT_LT(wall_ns - stage_ns, 1000000u)
        << "stages " << stage_ns << " ns of " << wall_ns << " ns";
    std::remove(path.c_str());
    std::remove(report_path.c_str());
#else
    GTEST_SKIP() << "telemetry compiled out";
#endif
}

} // namespace
} // namespace pmtest::core
