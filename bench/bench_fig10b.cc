/**
 * @file
 * Fig. 10b reproduction: PMTest overhead breakdown into "framework"
 * (operation tracking + trace plumbing, measured by running PMTest
 * with no checkers annotated) and "checker" (the extra cost once the
 * structures emit their checker annotations).
 *
 * Expected shape (paper): because checking is decoupled onto worker
 * threads, checkers contribute only a minority of the total overhead
 * (paper: 18.9–37.8%).
 */

#include <algorithm>
#include <vector>

#include "bench/bench_util.hh"
#include "workloads/microbench.hh"

int
main()
{
    using namespace pmtest;
    using namespace pmtest::workloads;

    bench::banner("Fig. 10b",
                  "PMTest overhead breakdown: framework vs checkers");

    const size_t insertions = 1000 * bench::scale();
    constexpr int kReps = 3;
    const std::vector<size_t> tx_sizes = {64, 256, 1024, 4096};

    TextTable table;
    table.header({"structure", "txsize(B)", "framework", "+checkers",
                  "checker-share"});

    Stats share_all;
    uint64_t stall_ns = 0;
    for (pmds::MapKind kind : pmds::kAllMapKinds) {
        for (size_t tx_size : tx_sizes) {
            MicrobenchConfig config;
            config.kind = kind;
            config.insertions = insertions;
            config.valueSize = tx_size;

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
            const double t_framework = best(Tool::PMTestNoCheck);
            const double t_full = best(Tool::PMTest);

            const double oh_framework = t_framework - t_native;
            const double oh_full = t_full - t_native;
            const double oh_checker =
                std::max(0.0, oh_full - oh_framework);
            const double share =
                oh_full > 0 ? oh_checker / oh_full : 0.0;
            share_all.add(share * 100.0);

            table.row({pmds::mapKindName(kind),
                       std::to_string(tx_size),
                       bench::fmtSlowdown(t_framework / t_native),
                       bench::fmtSlowdown(t_full / t_native),
                       fmtDouble(share * 100.0, 1) + "%"});
        }
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("Checker share of total overhead: avg %.1f%% "
                "(paper: 18.9-37.8%%)\n",
                share_all.mean());
    std::printf("dispatch: %.1f ms producer stall across the PMTest "
                "runs\n",
                static_cast<double>(stall_ns) * 1e-6);
    return 0;
}
