/**
 * @file
 * The check-session layer: CheckPlan validation (exit-2 semantics
 * for flag combinations, input errors without the usage hint) and
 * the worker/sequential equivalence at the heart of distributed
 * checking — N in-process worker-shaped sessions merge to the exact
 * findings of one plain session over the seed corpus — the exit
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

TEST(CheckPlanTest, WorkerModeValidation)
{
    const std::string path = corpusFile("plan_worker.trace");
    std::string error;
    bool usage = false;

    CheckPlan no_out = quietPlan(path);
    no_out.workerIndex = 0;
    no_out.workerCount = 2;
    EXPECT_FALSE(no_out.finalize(&error, &usage));
    EXPECT_EQ(error, "--worker needs --report-out=FILE");
    EXPECT_TRUE(usage);

    CheckPlan bad_index = quietPlan(path);
    bad_index.workerIndex = 2;
    bad_index.workerCount = 2;
    bad_index.reportOutPath = "r.bin";
    EXPECT_FALSE(bad_index.finalize(&error, &usage));
    EXPECT_NE(error.find("out of range"), std::string::npos);

    CheckPlan both = quietPlan(path);
    both.workerCount = 2;
    both.distribute = 2;
    both.reportOutPath = "r.bin";
    EXPECT_FALSE(both.finalize(&error, &usage));
    EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CheckPlanTest, DistributeRejectsPerProcessSurfaces)
{
    const std::string path = corpusFile("plan_dist.trace");
    const auto expectRejected = [&](void (*tweak)(CheckPlan &),
                                    const char *needle) {
        CheckPlan plan = quietPlan(path);
        plan.distribute = 2;
        tweak(plan);
        std::string error;
        bool usage = false;
        EXPECT_FALSE(plan.finalize(&error, &usage)) << needle;
        EXPECT_NE(error.find(needle), std::string::npos) << error;
        EXPECT_TRUE(usage);
    };
    expectRejected([](CheckPlan &p) { p.shards = 4; }, "--shards");
    expectRejected([](CheckPlan &p) { p.fixHints = true; },
                   "--fix-hints");
    expectRejected([](CheckPlan &p) { p.metricsLinger = true; },
                   "--metrics-linger");
    expectRejected([](CheckPlan &p) { p.showStats = true; },
                   "--stats");
    expectRejected([](CheckPlan &p) { p.traceEventsPath = "t.json"; },
                   "--trace-events");
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
    EXPECT_EQ(meta.workerCount, 0u) << "plain run, not a worker";
    EXPECT_EQ(meta.traceCount, seedCorpusTraces().size());
    EXPECT_EQ(meta.sourceCount, 1u);
    std::remove(path.c_str());
    std::remove(report_path.c_str());
}

TEST(CheckSessionTest, WorkerShardsMergeToTheSequentialReport)
{
    const std::string path = corpusFile("session_shards.trace");
    std::string error;

    // Sequential baseline.
    const std::string seq_path =
        testing::TempDir() + "session_seq.report";
    CheckPlan seq = quietPlan(path);
    seq.reportOutPath = seq_path;
    ASSERT_TRUE(seq.finalize(&error)) << error;
    EXPECT_EQ(runCheckTool(seq), 1);
    Report seq_report;
    ReportMeta seq_meta;
    ASSERT_TRUE(
        loadReportFile(seq_path, &seq_report, &seq_meta, &error))
        << error;

    // Three worker-shaped sessions over the same input, in-process.
    const uint32_t n = 3;
    std::vector<WorkerReport> parts;
    for (uint32_t i = 0; i < n; i++) {
        const std::string part_path = testing::TempDir() +
                                      "session_worker." +
                                      std::to_string(i);
        CheckPlan worker = quietPlan(path);
        worker.workerIndex = i;
        worker.workerCount = n;
        worker.reportOutPath = part_path;
        ASSERT_TRUE(worker.finalize(&error)) << error;
        const int rc = runCheckTool(worker);
        EXPECT_TRUE(rc == 0 || rc == 1) << "worker verdict, got "
                                        << rc;
        WorkerReport part;
        ASSERT_TRUE(loadReportFile(part_path, &part.report,
                                   &part.meta, &error))
            << error;
        EXPECT_EQ(part.meta.workerIndex, i);
        EXPECT_EQ(part.meta.workerCount, n);
        parts.push_back(std::move(part));
        std::remove(part_path.c_str());
    }

    Report merged;
    ReportMeta merged_meta;
    mergeReports(std::move(parts), &merged, &merged_meta);
    EXPECT_EQ(merged_meta.traceCount, seq_meta.traceCount);
    EXPECT_EQ(merged_meta.totalOps, seq_meta.totalOps);

    // Byte-level equivalence of the findings + string table: encode
    // both under a normalized meta (workerCount legitimately differs
    // between the two run shapes).
    ReportMeta normalized = seq_meta;
    normalized.workerIndex = 0;
    normalized.workerCount = 0;
    std::string seq_wire, merged_wire;
    encodeReport(seq_report, normalized, &seq_wire);
    encodeReport(merged, normalized, &merged_wire);
    EXPECT_EQ(merged_wire, seq_wire);

    std::remove(path.c_str());
    std::remove(seq_path.c_str());
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
    EXPECT_EQ(delta.stage(S::SessionGather).count, 0u)
        << "gather is the coordinator's stage";
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
