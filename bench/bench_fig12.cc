/**
 * @file
 * Fig. 12 reproduction: scalability of PMTest with memcached-lite.
 *
 *  (a) more memcached threads on a single engine worker -> slowdown
 *      grows (one worker falls behind the trace stream);
 *  (b) four memcached threads, more engine workers -> slowdown
 *      shrinks;
 *  (c) scaling both together -> roughly flat, with a slight rise from
 *      inter-thread communication.
 *
 * Each measured point also snapshots the engine pool's dispatch
 * statistics (steals, steal scans, producer stall time, queue
 * capacity, batch count) from its fastest tool run, so a slowdown can
 * be attributed to backpressure or load imbalance instead of guessed
 * at. --json=PATH dumps points + dispatch stats for CI trend
 * tracking, plus the process's voluntary and involuntary context
 * switches over each measured run (getrusage deltas) and, for tool
 * runs, the pool wakeups issued to a parked worker (the pool_wakes
 * counter delta, a futex-wake proxy): the cost extra engine workers
 * put on the app threads shows up there first. The dump records the
 * host's hardware_concurrency, since the (b) and (c) sweeps only mean
 * something when the workers have cores of their own.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "obs/metrics_doc.hh"
#include "obs/telemetry.hh"
#include "util/clock.hh"
#include "util/cpu.hh"
#include "workloads/clients.hh"
#include "workloads/memcached_lite.hh"

namespace
{

using namespace pmtest;
using namespace pmtest::workloads;

/**
 * Context switches of the whole process over one measured run, and
 * the engine pool's wakeups of parked workers (0 for native runs).
 */
struct CtxSwitches
{
    long voluntary = 0;
    long involuntary = 0;
    uint64_t poolWakes = 0;
};

CtxSwitches
ctxSwitchesNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return {usage.ru_nvcsw, usage.ru_nivcsw,
            obs::Telemetry::instance().metrics().counter(
                obs::Counter::PoolWakes)};
}

/**
 * Run n_threads clients against one server; returns seconds. When
 * running under PMTest, the pool's dispatch statistics are snapshotted
 * into @p stats_out just before the framework exits. @p csw_out
 * receives the context switches between the start of the timed
 * section and the end of checking.
 */
double
runThreaded(size_t n_threads, size_t n_workers, bool under_pmtest,
            bool ycsb, core::PoolStats *stats_out, CtxSwitches *csw_out)
{
    if (under_pmtest)
        pmtestInit(Config{.model = core::ModelKind::X86,
                          .workers = n_workers});

    // Setup (region construction, warm-up) is untimed.
    mnemosyne::Region region(64 << 20);
    MemcachedLite server(region);
    for (uint64_t k = 0; k < 300; k++)
        server.set("key-" + std::to_string(k), std::string(128, 'w'));

    const CtxSwitches csw_start = ctxSwitchesNow();
    Timer timer;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < n_threads; t++) {
        clients.emplace_back([&, t] {
            pmtestThreadInit();
            pmtestStart();
            ClientConfig config;
            config.ops = 2000 * bench::scale();
            config.keySpace = 300;
            config.valueSize = 128;
            config.seed = 1000 + t;
            if (ycsb) {
                runYcsbClient(server, config);
            } else {
                runMemslapClient(server, config);
            }
            pmtestSendTrace();
            pmtestEnd();
        });
    }
    for (auto &c : clients)
        c.join();
    if (under_pmtest) {
        pmtestGetResult();
        if (stats_out)
            *stats_out = pmtestPoolStats();
    }
    const double seconds = timer.elapsedSec();
    const CtxSwitches csw_end = ctxSwitchesNow();
    *csw_out = {csw_end.voluntary - csw_start.voluntary,
                csw_end.involuntary - csw_start.involuntary,
                csw_end.poolWakes - csw_start.poolWakes};

    if (under_pmtest)
        pmtestExit();
    return seconds;
}

/**
 * Slowdown plus the dispatch stats and context switches of the
 * fastest tool run, and the context switches of the fastest native
 * run for reference.
 */
struct Measurement
{
    double slowdown = 0;
    core::PoolStats stats;
    CtxSwitches toolCsw;
    CtxSwitches nativeCsw;
};

Measurement
measure(size_t n_threads, size_t n_workers, bool ycsb)
{
    double native = 1e30, tool = 1e30;
    Measurement m;
    for (int rep = 0; rep < 3; rep++) {
        CtxSwitches csw;
        const double native_sec =
            runThreaded(n_threads, 1, false, ycsb, nullptr, &csw);
        if (native_sec < native) {
            native = native_sec;
            m.nativeCsw = csw;
        }
        core::PoolStats stats;
        const double sec =
            runThreaded(n_threads, n_workers, true, ycsb, &stats, &csw);
        if (sec < tool) {
            tool = sec;
            m.stats = std::move(stats);
            m.toolCsw = csw;
        }
    }
    m.slowdown = tool / native;
    return m;
}

/** One fully measured sweep point, for the table and the JSON dump. */
struct Point
{
    std::string sweep;
    size_t threads = 0;
    size_t workers = 0;
    Measurement memslap;
    Measurement ycsb;
};

void
sweep(const char *tag, const char *title,
      const std::vector<std::pair<size_t, size_t>> &grid,
      std::vector<Point> &points)
{
    std::printf("%s\n", title);
    TextTable table;
    table.header({"app-threads", "engine-workers", "memslap", "ycsb",
                  "steals", "stall-ms"});
    for (const auto &[threads, workers] : grid) {
        Point p;
        p.sweep = tag;
        p.threads = threads;
        p.workers = workers;
        p.memslap = measure(threads, workers, false);
        p.ycsb = measure(threads, workers, true);
        const auto &stats = p.memslap.stats;
        table.row({std::to_string(threads), std::to_string(workers),
                   pmtest::bench::fmtSlowdown(p.memslap.slowdown),
                   pmtest::bench::fmtSlowdown(p.ycsb.slowdown),
                   std::to_string(stats.steals),
                   fmtDouble(stats.producerStallNanos / 1e6, 1)});
        points.push_back(std::move(p));
    }
    std::printf("%s\n", table.str().c_str());
}

void
writeCtxSwitches(JsonWriter &w, const char *key, const CtxSwitches &c)
{
    w.key(key).beginObject();
    w.member("voluntary", static_cast<int64_t>(c.voluntary));
    w.member("involuntary", static_cast<int64_t>(c.involuntary));
    w.endObject();
}

bool
writeJson(const std::string &path, const std::vector<Point> &points)
{
    JsonWriter w;
    w.beginObject();
    w.member("bench", "fig12");
    w.member("scale", pmtest::bench::scale());
    w.member("hardware_concurrency",
             static_cast<uint64_t>(util::hardwareThreads()));
    w.key("points").beginArray();
    for (const Point &p : points) {
        w.beginObject();
        w.member("sweep", p.sweep);
        w.member("app_threads", p.threads);
        w.member("engine_workers", p.workers);
        w.member("memslap_slowdown", p.memslap.slowdown, 3);
        w.member("ycsb_slowdown", p.ycsb.slowdown, 3);
        w.key("memslap_dispatch");
        obs::writePoolStatsJson(w, p.memslap.stats);
        w.key("ycsb_dispatch");
        obs::writePoolStatsJson(w, p.ycsb.stats);
        writeCtxSwitches(w, "memslap_ctx_switches", p.memslap.toolCsw);
        writeCtxSwitches(w, "memslap_native_ctx_switches",
                         p.memslap.nativeCsw);
        writeCtxSwitches(w, "ycsb_ctx_switches", p.ycsb.toolCsw);
        writeCtxSwitches(w, "ycsb_native_ctx_switches",
                         p.ycsb.nativeCsw);
        w.member("memslap_pool_wakes", p.memslap.toolCsw.poolWakes);
        w.member("ycsb_pool_wakes", p.ycsb.toolCsw.poolWakes);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return pmtest::bench::writeJsonFile(path, w);
}

} // namespace

int
main(int argc, char **argv)
{
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

    bench::banner("Fig. 12",
                  "memcached scalability: app threads vs engine "
                  "workers");

    std::vector<Point> points;
    sweep("a", "(a) scaling memcached threads, single PMTest worker:",
          {{1, 1}, {2, 1}, {4, 1}}, points);
    sweep("b", "(b) four memcached threads, scaling PMTest workers:",
          {{4, 1}, {4, 2}, {4, 4}}, points);
    sweep("c", "(c) scaling both together:", {{1, 1}, {2, 2}, {4, 4}},
          points);

    std::printf("Expected shape (paper): (a) rises, (b) falls, "
                "(c) roughly flat with a mild rise.\n");

    if (!json_path.empty()) {
        if (!writeJson(json_path, points))
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
