/**
 * @file
 * Distributed scatter/gather checking, asserted against the real
 * pmtest_check binary: --distribute=N output is byte-identical to
 * the sequential run on the seed corpus and on a multi-file set, a
 * killed worker fails the whole run naming the shard, worker mode
 * emits a wire report instead of stdout output, and the
 * coordinator's exit metrics document carries the merged verdict
 * with no pool gauges of its own.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_io.hh"
#include "tests/obs/json_test_util.hh"
#include "tests/tools/tool_driver.hh"

namespace
{

using pmtest::testtools::RunResult;
using pmtest::testtools::run;

/** Write the seed corpus to @p path via the real tool. */
void
seedCorpus(const std::string &path)
{
    const RunResult r =
        run(std::string(PMTEST_SEED_BIN) + " " + path);
    ASSERT_EQ(r.exitCode, 0) << r.stderrText;
}

std::string
tempName(const char *name)
{
    return testing::TempDir() + "dist_" + std::to_string(getpid()) +
           "_" + name;
}

TEST(DistributedCheckTest, MatchesSequentialOnSeedCorpus)
{
    const std::string corpus = tempName("corpus.trace");
    seedCorpus(corpus);

    const std::string check = PMTEST_CHECK_BIN;
    const RunResult sequential = run(check + " " + corpus);
    const RunResult distributed =
        run(check + " --distribute=4 " + corpus);

    EXPECT_EQ(sequential.exitCode, 1) << "seed corpus has FAILs";
    EXPECT_EQ(distributed.exitCode, sequential.exitCode);
    EXPECT_EQ(distributed.stdoutText, sequential.stdoutText);
    EXPECT_TRUE(distributed.stderrText.empty())
        << distributed.stderrText;
    std::remove(corpus.c_str());
}

TEST(DistributedCheckTest, MatchesSequentialOnMultiFileSet)
{
    // Three input files; distinct paths, fileId assigned by position.
    std::vector<std::string> files;
    for (const char *name :
         {"multi_a.trace", "multi_b.trace", "multi_c.trace"}) {
        files.push_back(tempName(name));
        seedCorpus(files.back());
    }
    std::string args;
    for (const std::string &f : files)
        args += " " + f;

    const std::string check = PMTEST_CHECK_BIN;
    const RunResult sequential = run(check + args);
    // More workers than files: the surplus shard must be harmless.
    for (const char *n : {"2", "4"}) {
        const RunResult distributed =
            run(check + " --distribute=" + n + args);
        EXPECT_EQ(distributed.exitCode, sequential.exitCode) << n;
        EXPECT_EQ(distributed.stdoutText, sequential.stdoutText)
            << "--distribute=" << n;
    }
    for (const std::string &f : files)
        std::remove(f.c_str());
}

TEST(DistributedCheckTest, KilledWorkerFailsTheRunNamingTheShard)
{
    const std::string corpus = tempName("kill.trace");
    seedCorpus(corpus);

    const RunResult r = run("PMTEST_WORKER_FAIL=1 " +
                            std::string(PMTEST_CHECK_BIN) +
                            " --distribute=3 " + corpus);
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.stderrText.find("distributed check failed"),
              std::string::npos)
        << r.stderrText;
    EXPECT_NE(r.stderrText.find("worker 1/3"), std::string::npos)
        << r.stderrText;
    std::remove(corpus.c_str());
}

TEST(DistributedCheckTest, WorkerModeEmitsWireReportNotStdout)
{
    const std::string corpus = tempName("worker.trace");
    seedCorpus(corpus);
    const std::string report = tempName("worker.report");

    const RunResult r = run(std::string(PMTEST_CHECK_BIN) +
                            " --worker=0/2 --report-out=" + report +
                            " " + corpus);
    EXPECT_TRUE(r.exitCode == 0 || r.exitCode == 1) << r.exitCode;
    EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;

    pmtest::core::Report part;
    pmtest::core::ReportMeta meta;
    std::string error;
    ASSERT_TRUE(
        pmtest::core::loadReportFile(report, &part, &meta, &error))
        << error;
    EXPECT_EQ(meta.workerIndex, 0u);
    EXPECT_EQ(meta.workerCount, 2u);
    std::remove(corpus.c_str());
    std::remove(report.c_str());
}

TEST(DistributedCheckTest, ReportOutKeepsAndMergesWorkerReports)
{
    const std::string corpus = tempName("gather.trace");
    seedCorpus(corpus);
    const std::string report = tempName("gather.report");

    const RunResult r = run(std::string(PMTEST_CHECK_BIN) +
                            " --distribute=2 --quiet --report-out=" +
                            report + " " + corpus);
    EXPECT_EQ(r.exitCode, 1);

    // The merged report plus one kept wire report per worker.
    pmtest::core::Report merged;
    pmtest::core::ReportMeta meta;
    std::string error;
    ASSERT_TRUE(
        pmtest::core::loadReportFile(report, &merged, &meta, &error))
        << error;
    EXPECT_GT(merged.failCount(), 0u);
    EXPECT_EQ(meta.workerCount, 2u);
    for (int i = 0; i < 2; i++) {
        const std::string part = report + "." + std::to_string(i);
        pmtest::core::Report worker;
        EXPECT_TRUE(pmtest::core::loadReportFile(part, &worker,
                                                 nullptr, &error))
            << error;
        std::remove(part.c_str());
    }
    std::remove(corpus.c_str());
    std::remove(report.c_str());
}

TEST(DistributedCheckTest, ExitMetricsDocumentHasMergedVerdictNoPool)
{
    const std::string corpus = tempName("metrics_corpus.trace");
    const std::string report = tempName("metrics.report");
    const std::string metrics = tempName("metrics.json");
    seedCorpus(corpus);
    const RunResult r = run(std::string(PMTEST_CHECK_BIN) +
                            " --distribute=4 --quiet --report-out=" +
                            report + " --metrics-json=" + metrics +
                            " " + corpus);
    EXPECT_EQ(r.exitCode, 1) << r.stderrText;

    pmtest::core::Report merged;
    pmtest::core::ReportMeta meta;
    std::string error;
    ASSERT_TRUE(
        pmtest::core::loadReportFile(report, &merged, &meta, &error))
        << error;
    std::ifstream in(metrics);
    std::stringstream text;
    text << in.rdbuf();
    pmtest::test::Json doc;
    ASSERT_TRUE(pmtest::test::JsonParser(text.str()).parse(&doc));
    EXPECT_EQ(doc.find("schema")->text, "pmtest-metrics-v2");
    EXPECT_EQ(doc.find("run")->find("distribute")->number, 4.0);
    const pmtest::test::Json *verdict = doc.find("verdict");
    ASSERT_NE(verdict, nullptr);
    EXPECT_EQ(verdict->find("fail")->number, merged.failCount());
    EXPECT_EQ(verdict->find("warn")->number, merged.warnCount());
    EXPECT_EQ(verdict->find("findings")->number,
              merged.findings().size());
    const pmtest::test::Json *gauges = doc.find("gauges");
    EXPECT_FALSE(gauges->find("pool")->find("valid")->boolean)
        << "the coordinator runs no pool";
    EXPECT_FALSE(gauges->find("ingest")->find("valid")->boolean);

    std::remove(corpus.c_str());
    std::remove(report.c_str());
    for (int i = 0; i < 4; i++)
        std::remove((report + "." + std::to_string(i)).c_str());
    std::remove(metrics.c_str());
}

} // namespace
