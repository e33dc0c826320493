/**
 * @file
 * Fig. 10a reproduction: slowdown of PMTest and the pmemcheck
 * stand-in on the five PMDK-style microbenchmarks, sweeping the
 * transaction size (value bytes) 64–4096. Each run inserts N keys
 * (one transaction per insertion) and is normalized to the native
 * (no-tool) time.
 *
 * Expected shape (paper): PMTest is several times faster than
 * pmemcheck across the board (paper: 5.2–8.9x, avg 7.1x), and
 * PMTest's overhead shrinks as transactions grow because it tracks
 * PM operations at coarse granularity while pmemcheck pays per byte.
 *
 * --json=PATH dumps every row (native seconds, both slowdowns and
 * their ratio) with the scale and the host's hardware_concurrency,
 * since the PMTest runs check on engine workers of their own.
 */

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "util/cpu.hh"
#include "workloads/microbench.hh"

namespace
{

using namespace pmtest;

/** One (structure, transaction size) row of the table. */
struct Row
{
    const char *structure;
    size_t txSize;
    double nativeSeconds;
    double pmtestSlowdown;
    double pmemcheckSlowdown;
};

bool
writeJson(const std::string &path, const std::vector<Row> &rows)
{
    JsonWriter w;
    w.beginObject();
    w.member("bench", "fig10a");
    w.member("scale", bench::scale());
    w.member("hardware_concurrency",
             static_cast<uint64_t>(util::hardwareThreads()));
    w.key("rows").beginArray();
    for (const Row &r : rows) {
        w.beginObject();
        w.member("structure", r.structure);
        w.member("tx_size", static_cast<uint64_t>(r.txSize));
        w.member("native_s", r.nativeSeconds, 6);
        w.member("pmtest_slowdown", r.pmtestSlowdown, 3);
        w.member("pmemcheck_slowdown", r.pmemcheckSlowdown, 3);
        w.member("pmemcheck_over_pmtest",
                 r.pmemcheckSlowdown / r.pmtestSlowdown, 3);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return bench::writeJsonFile(path, w);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmtest::workloads;

    std::string json_path;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else {
            std::fprintf(stderr, "usage: %s [--json=PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    bench::banner("Fig. 10a",
                  "microbenchmark slowdown: PMTest vs pmemcheck");

    const size_t insertions = 1000 * bench::scale();
    constexpr int kReps = 3;
    const std::vector<size_t> tx_sizes = {64,  128,  256, 512,
                                          1024, 2048, 4096};

    TextTable table;
    table.header({"structure", "txsize(B)", "native(s)", "pmtest",
                  "pmemcheck", "pmemcheck/pmtest"});

    std::vector<Row> rows;
    Stats pmtest_all, pmemcheck_all, ratio_all;
    uint64_t stall_ns = 0;
    for (pmds::MapKind kind : pmds::kAllMapKinds) {
        for (size_t tx_size : tx_sizes) {
            MicrobenchConfig config;
            config.kind = kind;
            config.insertions = insertions;
            config.valueSize = tx_size;

            // Best-of-N to de-noise the sub-second native runs.
            auto best = [&](Tool tool) {
                double sec = 1e30;
                for (int rep = 0; rep < kReps; rep++) {
                    const auto run = runMicrobench(config, tool);
                    sec = std::min(sec, run.seconds);
                    if (tool == Tool::PMTest)
                        stall_ns += run.poolStats.producerStallNanos;
                }
                return sec;
            };
            const double t_native = best(Tool::Native);
            const double t_pmtest = best(Tool::PMTest);
            const double t_pmemcheck = best(Tool::Pmemcheck);

            const double s_pmtest = t_pmtest / t_native;
            const double s_pmemcheck = t_pmemcheck / t_native;
            pmtest_all.add(s_pmtest);
            pmemcheck_all.add(s_pmemcheck);
            ratio_all.add(s_pmemcheck / s_pmtest);
            rows.push_back({pmds::mapKindName(kind), tx_size, t_native,
                            s_pmtest, s_pmemcheck});

            table.row({pmds::mapKindName(kind),
                       std::to_string(tx_size),
                       fmtDouble(t_native, 4),
                       bench::fmtSlowdown(s_pmtest),
                       bench::fmtSlowdown(s_pmemcheck),
                       fmtDouble(s_pmemcheck / s_pmtest, 2)});
        }
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("PMTest slowdown: avg %s (min %s, max %s)\n",
                bench::fmtSlowdown(pmtest_all.mean()).c_str(),
                bench::fmtSlowdown(pmtest_all.min()).c_str(),
                bench::fmtSlowdown(pmtest_all.max()).c_str());
    std::printf("pmemcheck slowdown: avg %s (min %s, max %s)\n",
                bench::fmtSlowdown(pmemcheck_all.mean()).c_str(),
                bench::fmtSlowdown(pmemcheck_all.min()).c_str(),
                bench::fmtSlowdown(pmemcheck_all.max()).c_str());
    std::printf("PMTest speedup over pmemcheck: avg %.2fx "
                "(paper: 7.1x avg, 5.2-8.9x range)\n",
                ratio_all.mean());
    std::printf("dispatch: %.1f ms producer stall across the PMTest "
                "runs (Config::queueCapacity bounds the queue, 1,024 "
                "traces by default)\n",
                static_cast<double>(stall_ns) * 1e-6);

    if (!json_path.empty()) {
        if (!writeJson(json_path, rows))
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
