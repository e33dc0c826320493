/**
 * @file
 * The uniform flag-error contract, asserted against the real
 * binaries: every unknown flag and every malformed value makes
 * pmtest_check, pmtest_recall and pmtest_seed_corpus print a
 * diagnostic plus their usage text to stderr and exit 2, and --help
 * prints usage to stdout and exits 0. Binary paths are injected by
 * CMake (PMTEST_*_BIN).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "tests/tools/tool_driver.hh"
#include "trace/trace_io.hh"

namespace
{

using pmtest::testtools::RunResult;
using pmtest::testtools::run;

void
expectUsageError(const std::string &bin, const std::string &args,
                 const std::string &needle)
{
    const RunResult r = run(bin + " " + args);
    EXPECT_EQ(r.exitCode, 2) << bin << " " << args;
    EXPECT_NE(r.stderrText.find("usage:"), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
    EXPECT_NE(r.stderrText.find(needle), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
}

const char *const kAllBins[] = {PMTEST_CHECK_BIN, PMTEST_RECALL_BIN,
                                PMTEST_SEED_BIN};

TEST(UsageErrorsTest, UnknownFlagExitsTwoOnEveryTool)
{
    for (const char *bin : kAllBins)
        expectUsageError(bin, "--no-such-flag",
                         "unknown option '--no-such-flag'");
}

TEST(UsageErrorsTest, HelpExitsZeroOnEveryTool)
{
    for (const char *bin : kAllBins) {
        const RunResult r = run(std::string(bin) + " --help");
        EXPECT_EQ(r.exitCode, 0) << bin;
        EXPECT_NE(r.stdoutText.find("usage:"), std::string::npos)
            << bin;
        EXPECT_TRUE(r.stderrText.empty()) << bin;
    }
}

TEST(UsageErrorsTest, CheckRejectsBadValues)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--workers=abc x.trace",
                     "invalid value for --workers: 'abc'");
    expectUsageError(bin, "--max-findings= x.trace",
                     "invalid value for --max-findings: ''");
    expectUsageError(bin, "--model=sparc x.trace",
                     "(choices: x86, hops, arm)");
    expectUsageError(bin, "--metrics-port=99999 x.trace",
                     "(max 65535)");
    expectUsageError(bin, "--quiet=1 x.trace",
                     "--quiet takes no value");
    expectUsageError(bin, "", "usage:"); // missing positional
}

TEST(UsageErrorsTest, CheckRejectsV1InputsAndTheIngestFlag)
{
    const std::string bin = PMTEST_CHECK_BIN;
    // A bare v1 header (magic, version 1, zero traces): an input
    // error, so exit 2 with the path named and no usage text.
    std::string bytes(pmtest::TraceWire::kHeaderBytes, '\0');
    const uint32_t version = 1;
    std::memcpy(&bytes[0], &pmtest::TraceWire::kMagic, sizeof(uint64_t));
    std::memcpy(&bytes[8], &version, sizeof(version));
    const std::string path =
        testing::TempDir() + "usage_v1_" + std::to_string(getpid()) +
        ".trace";
    std::ofstream(path, std::ios::binary) << bytes;

    const RunResult r = run(bin + " " + path);
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.stderrText.find(path + ": v1 trace file"),
              std::string::npos)
        << r.stderrText;
    EXPECT_EQ(r.stderrText.find("usage:"), std::string::npos);
    std::remove(path.c_str());

    // The reader-selection flag is gone: every input opens through
    // the indexed reader.
    expectUsageError(bin, "--ingest=stream x.trace",
                     "unknown option '--ingest");
}

TEST(UsageErrorsTest, CheckRejectsThePlacementFlags)
{
    // Ingest has one placement (a shared cursor feeding round-robin
    // submits), so neither the policy nor the in-process split of one
    // file is a flag; --worker/--distribute still split the input.
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--affinity=pinned x.trace",
                     "unknown option '--affinity");
    expectUsageError(bin, "--shards=2 x.trace",
                     "unknown option '--shards");
}

TEST(UsageErrorsTest, CheckRejectsBadDistributedSpecs)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--worker=nonsense x.trace",
                     "invalid value for --worker: 'nonsense'");
    expectUsageError(bin, "--worker=3/2 --report-out=r x.trace",
                     "out of range");
    expectUsageError(bin, "--worker=0/2 x.trace",
                     "--worker needs --report-out=FILE");
    expectUsageError(bin, "--distribute=abc x.trace",
                     "invalid value for --distribute: 'abc'");
    expectUsageError(bin,
                     "--distribute=2 --worker=0/2 --report-out=r "
                     "x.trace",
                     "mutually exclusive");
    expectUsageError(bin, "--distribute=2 --stats x.trace",
                     "--stats is per-process");
}

TEST(UsageErrorsTest, RecallRejectsBadValues)
{
    const std::string bin = PMTEST_RECALL_BIN;
    expectUsageError(bin, "--metrics-port=notaport",
                     "invalid value for --metrics-port: 'notaport'");
    expectUsageError(bin, "--json=", "--json needs a value");
    expectUsageError(bin, "unexpected-positional",
                     "unexpected argument 'unexpected-positional'");
}

TEST(UsageErrorsTest, SeedCorpusRejectsBadArgCounts)
{
    const std::string bin = PMTEST_SEED_BIN;
    expectUsageError(bin, "", "usage:"); // missing out path
    expectUsageError(bin, "a.trace b.trace",
                     "unexpected argument 'b.trace'");
}

} // namespace
