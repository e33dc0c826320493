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

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>

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

/**
 * Serve one worker-report round trip through the FIFO at @p path:
 * swallow what the worker writes, then hand the coordinator's read
 * @p replacement instead. Gives up after a minute, unblocking a
 * coordinator stuck opening the FIFO, and returns false.
 */
bool
swapFifoContents(const std::string &path, const std::string &replacement)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    // O_CLOEXEC: a reader end inherited by the tool would keep the
    // FIFO open and let the coordinator's own open wait forever.
    const int in = open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (in < 0)
        return false;
    // Linux reports POLLHUP on a FIFO only once a writer has come and
    // gone, so the loop ends when the worker has closed its report.
    bool drained = false;
    char buf[4096];
    while (!drained && Clock::now() < deadline) {
        pollfd pfd{in, POLLIN, 0};
        if (poll(&pfd, 1, 100) <= 0)
            continue;
        const ssize_t n = read(in, buf, sizeof buf);
        drained = n == 0 && (pfd.revents & POLLHUP) != 0;
    }
    close(in);

    int out = -1;
    while (drained && out < 0 && Clock::now() < deadline) {
        out = open(path.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
        if (out < 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (out < 0) {
        close(open(path.c_str(), O_RDWR | O_NONBLOCK | O_CLOEXEC));
        return false;
    }
    const bool wrote =
        write(out, replacement.data(), replacement.size()) ==
        static_cast<ssize_t>(replacement.size());
    close(out);
    return wrote;
}

TEST(UsageErrorsTest, DistributeRejectsAVersionOneWorkerReport)
{
    // The worker's report path is a FIFO: the test takes the worker's
    // v2 report and hands the coordinator a v1 report instead, as an
    // older worker binary would write. The coordinator must refuse
    // it — exit 2, naming the file — never misread it.
    static const unsigned char kV1[] = {
#include "tests/core/report_v1_golden.inc"
    };
    const std::string tag =
        testing::TempDir() + "usage_v1w_" + std::to_string(getpid());
    const std::string trace = tag + ".trace";
    const std::string base = tag + ".report";
    const std::string part = base + ".0";
    ASSERT_EQ(run(std::string(PMTEST_SEED_BIN) + " " + trace).exitCode, 0);
    ASSERT_EQ(mkfifo(part.c_str(), 0600), 0);

    RunResult r;
    std::thread coordinator([&] {
        r = run(std::string(PMTEST_CHECK_BIN) +
                " --distribute=1 --report-out=" + base + " " + trace);
    });
    const bool swapped = swapFifoContents(
        part, std::string(reinterpret_cast<const char *>(kV1),
                          sizeof kV1));
    coordinator.join();
    EXPECT_TRUE(swapped);
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.stderrText.find(part + ": unsupported report version"),
              std::string::npos)
        << r.stderrText;
    EXPECT_TRUE(r.stdoutText.empty()) << r.stdoutText;
    std::remove(part.c_str());
    std::remove(base.c_str());
    std::remove(trace.c_str());
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
