/**
 * @file
 * Fig. 11 reproduction: PMTest slowdown on the real workloads
 * (paper Table 4): memcached-lite driven by Memslap- and YCSB-style
 * clients, redis-lite driven by an LRU-stress client, and the mini
 * PMFS driven by OLTP- and Filebench-style clients. Redis is also run
 * under the pmemcheck stand-in, as in the paper's text.
 *
 * Setup (pool construction, store pre-population) happens outside the
 * timed region; only client execution is measured.
 *
 * Expected shape (paper): 1.33–1.98x slowdown (avg 1.69x) — much
 * lower than the microbenchmarks because real workloads are less
 * PM-operation intensive; pmemcheck on Redis is far worse
 * (paper: 22.3x).
 */

#include <algorithm>
#include <memory>

#include "bench/bench_util.hh"
#include "pmfs/pmfs.hh"
#include "workloads/clients.hh"
#include "workloads/tool_harness.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::workloads;

ClientConfig
clientConfig()
{
    ClientConfig config;
    config.ops = 3000 * bench::scale();
    config.keySpace = 400;
    config.valueSize = 128;
    return config;
}

StagedWorkload
memcachedWorkload(bool ycsb)
{
    return [ycsb](bool checkers) {
        auto region = std::make_shared<mnemosyne::Region>(64 << 20);
        region->emitCheckers = checkers;
        auto server = std::make_shared<MemcachedLite>(*region);
        // Pre-populate so GETs mostly hit, like a warmed cache.
        for (uint64_t k = 0; k < clientConfig().keySpace; k++)
            server->set("key-" + std::to_string(k),
                        std::string(128, 'w'));
        return [region, server, ycsb] {
            if (ycsb) {
                runYcsbClient(*server, clientConfig());
            } else {
                runMemslapClient(*server, clientConfig());
            }
        };
    };
}

StagedWorkload
redisWorkload()
{
    return [](bool checkers) {
        auto pool = std::make_shared<txlib::ObjPool>(64 << 20);
        auto server =
            std::make_shared<RedisLite>(*pool, /*capacity=*/300);
        server->emitCheckers = checkers;
        return [pool, server] {
            runRedisLruClient(*server, clientConfig());
        };
    };
}

StagedWorkload
pmfsWorkload(bool oltp)
{
    return [oltp](bool checkers) {
        auto fs = std::make_shared<pmfs::Pmfs>(32 << 20, false,
                                               /*use_fifo=*/true);
        fs->emitCheckers = checkers;
        return [fs, oltp] {
            ClientConfig config = clientConfig();
            config.ops /= 4; // file ops are heavier than KV ops
            if (oltp) {
                runOltpClient(*fs, config, 0);
            } else {
                runFilebenchClient(*fs, config, 0);
            }
            fs->drainTraces();
        };
    };
}

uint64_t g_stall_ns = 0; ///< producer stall across PMTest runs

double
bestOf(Tool tool, const StagedWorkload &workload, int reps)
{
    double best = 1e30;
    for (int i = 0; i < reps; i++) {
        const RunResult run = runStaged(tool, workload);
        best = std::min(best, run.seconds);
        if (tool == Tool::PMTest)
            g_stall_ns += run.poolStats.producerStallNanos;
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("Fig. 11", "real-workload slowdown under PMTest");

    struct Row
    {
        const char *name;
        StagedWorkload workload;
        bool also_pmemcheck;
    };
    const Row rows[] = {
        {"memcached+memslap", memcachedWorkload(false), false},
        {"memcached+ycsb", memcachedWorkload(true), false},
        {"redis+lru", redisWorkload(), true},
        {"pmfs+oltp", pmfsWorkload(true), false},
        {"pmfs+filebench", pmfsWorkload(false), false},
    };
    constexpr int kReps = 3;

    TextTable table;
    table.header({"workload", "native(s)", "pmtest", "pmemcheck"});
    Stats pmtest_all;

    for (const auto &row : rows) {
        const double native = bestOf(Tool::Native, row.workload, kReps);
        const double pmtest = bestOf(Tool::PMTest, row.workload, kReps);
        const double s_pmtest = pmtest / native;
        pmtest_all.add(s_pmtest);

        std::string pmemcheck_cell = "-";
        if (row.also_pmemcheck) {
            const double pmemcheck =
                bestOf(Tool::Pmemcheck, row.workload, kReps);
            pmemcheck_cell = bench::fmtSlowdown(pmemcheck / native);
        }
        table.row({row.name, fmtDouble(native, 4),
                   bench::fmtSlowdown(s_pmtest), pmemcheck_cell});
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("PMTest slowdown on real workloads: avg %s "
                "(paper: 1.69x avg, 1.33-1.98x range)\n",
                bench::fmtSlowdown(pmtest_all.mean()).c_str());
    std::printf("dispatch: %.1f ms producer stall across the PMTest "
                "runs\n",
                static_cast<double>(g_stall_ns) * 1e-6);
    return 0;
}
