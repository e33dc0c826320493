/**
 * @file
 * Seeded-bug recall/precision metric (`pmtest-recall-v1`): how much
 * of the known bug population do the checkers and the representative
 * crash-state oracle actually find?
 *
 *  - Checker campaigns: the Table 5 (42 injected bugs) and Table 6
 *    (known/new real bugs) campaigns from workloads/bug_injector,
 *    plus the seeded-bug trace corpus — recall is detected/seeded.
 *  - Oracle campaign: crash-consistency scenarios with known ground
 *    truth (clean protocols must survive every crash state, seeded
 *    corruptions must fail in some state), each explored in
 *    representative mode — recall over the buggy cases, precision
 *    against the clean ones, and the measured state-space reduction.
 *
 * CI runs this and gates on bench/recall_baseline.json via
 * bench/check_recall.py: recall must never drop below the recorded
 * baseline.
 *
 * Usage: pmtest_recall [--json=FILE] [--metrics-port=N]
 *                      [--event-log=FILE]
 * --metrics-port serves /metrics and /metrics.json live while the
 * campaigns run (oracle counters, RSS, rates); --event-log appends
 * run start/stop records. Both follow the pmtest_check contract
 * (port 0 = ephemeral, "-" = stdout, unwritable path = exit 2).
 * Exit status: 0 on success, 2 on usage/IO errors.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/check_session.hh"
#include "util/cli.hh"

#include "baseline/yat.hh"
#include "core/api.hh"
#include "core/engine.hh"
#include "pmds/hashmap_atomic.hh"
#include "pmds/hashmap_tx.hh"
#include "pmfs/pmfs.hh"
#include "trace/seed_corpus.hh"
#include "txlib/undo_log.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/bug_injector.hh"

namespace pmtest
{
namespace
{

using baseline::Yat;
using ByteMap = std::map<uint64_t, std::vector<uint8_t>>;

/** One ground-truth oracle scenario. */
struct OracleCase
{
    const char *id;
    bool seeded; ///< true when some crash state must fail recovery
    std::function<Yat::OracleResult()> run;
};

/** Outcome of the oracle campaign. */
struct OracleCampaign
{
    size_t seeded = 0;
    size_t found = 0;          ///< seeded cases with failures > 0
    size_t clean = 0;
    size_t falsePositives = 0; ///< clean cases with failures > 0
    uint64_t statesTested = 0;
    uint64_t statesCovered = 0;
    std::vector<std::string> missed;
};

Yat::OracleOptions
representativeOptions()
{
    Yat::OracleOptions opts;
    opts.mode = Yat::OracleOptions::Mode::Representative;
    return opts;
}

/** Committed map prefix shared by the txlib scenarios. */
template <typename MapT>
ByteMap
seedMap(MapT &map, uint8_t fill)
{
    ByteMap reference;
    const std::vector<uint8_t> value(40, fill);
    for (uint64_t k = 1; k <= 12; k++) {
        map.insert(k, value.data(), value.size());
        reference[k] = value;
    }
    return reference;
}

/** Open a transaction writing @p objects fresh 64-byte objects. */
void
stageOpenTx(txlib::ObjPool &pool, int objects)
{
    pool.txBegin();
    for (int i = 0; i < objects; i++) {
        auto *obj = static_cast<uint64_t *>(pool.txAllocRaw(64));
        uint64_t payload[8];
        for (int w = 0; w < 8; w++)
            payload[w] = 0x4000 * (i + 1) + w + 1;
        pool.txWrite(obj, payload, sizeof(payload));
    }
}

/** Explore a txlib map pool; optionally seed an unlogged store. */
Yat::OracleResult
runTxlibCase(bool seed_unlogged_write)
{
    pmtestInit(Config{});
    pmtestThreadInit();
    txlib::ObjPool pool(4 << 20, /*simulate_crashes=*/true);
    pmtestAttachPool(&pool.pmPool());
    pmds::HashmapTx map(pool);
    const ByteMap reference = seedMap(map, 0x5a);

    stageOpenTx(pool, 24);
    if (seed_unlogged_write) {
        // The missing-TX_ADD bug class: recovery cannot roll this
        // back, so states where it persisted break the count check.
        txlib::PoolHeader header;
        std::memcpy(&header, pool.pmPool().base(), sizeof(header));
        auto *count = reinterpret_cast<uint64_t *>(
            pool.pmPool().base() + header.rootOffset + 16);
        pmAssign(count, *count + 1);
    }

    const auto result = Yat::explorePool(
        pool.pmPool(),
        [&](pmem::TrackedImage &image) {
            txlib::recoverImage(image);
            ByteMap walked;
            if (!pmds::HashmapTx::readImage(pool.pmPool(),
                                            image.raw(), &walked,
                                            image.tracker()))
                return false;
            return walked == reference;
        },
        representativeOptions());
    pool.txCommit();
    pmtestDetachPool();
    pmtestExit();
    return result;
}

/** Explore an atomic-map pool; optionally skip the node flush. */
Yat::OracleResult
runAtomicMapCase(bool seed_skip_flush)
{
    pmtestInit(Config{});
    pmtestThreadInit();
    txlib::ObjPool pool(4 << 20, /*simulate_crashes=*/true);
    pmtestAttachPool(&pool.pmPool());
    pmds::HashmapAtomic map(pool);

    const std::vector<uint8_t> value(32, 0x4c);
    for (uint64_t k = 1; k <= 12; k++)
        map.insert(k, value.data(), value.size());
    uint64_t expected = 12;
    if (seed_skip_flush) {
        // One more insert with the new-node writeback skipped: the
        // published link may point at a stale (zero) node.
        map.faults.skipFlush = true;
        map.insert(13, value.data(), value.size());
        map.faults.skipFlush = false;
        expected = 13;
    }
    // Unpublished staged buffers inflate the space past 2^30.
    for (int i = 0; i < 30; i++) {
        auto *buf = static_cast<uint64_t *>(pool.allocRaw(64));
        uint64_t payload[8];
        for (int w = 0; w < 8; w++)
            payload[w] = 0xbeef0000 + 8 * i + w;
        pmStore(buf, payload, sizeof(payload));
    }

    const auto result = Yat::explorePool(
        pool.pmPool(),
        [&](pmem::TrackedImage &image) {
            uint64_t recounted = 0;
            if (!pmds::HashmapAtomic::recoverImage(
                    pool.pmPool(), image.raw(), &recounted,
                    image.tracker()))
                return false;
            if (recounted != expected)
                return false;
            if (!seed_skip_flush)
                return true;
            // The stale-node state recounts to 13 (the link is
            // durable) but the node bytes never persisted. Walk the
            // chains for it: the Tx map's image walker shares the
            // node layout and root prefix, and rejects a node whose
            // value pointer is null/garbage.
            return pmds::HashmapTx::readImage(pool.pmPool(),
                                              image.raw(), nullptr,
                                              image.tracker());
        },
        representativeOptions());
    pmtestDetachPool();
    pmtestExit();
    return result;
}

/** Explore a PMFS volume; optionally skip the data fence. */
Yat::OracleResult
runPmfsCase(bool seed_meta_corruption)
{
    pmtestInit(Config{});
    pmtestThreadInit();
    pmfs::Pmfs fs(4 << 20, /*simulate_crashes=*/true,
                  /*use_fifo=*/false);
    pmtestAttachPool(&fs.pmPool());

    fs.faults.skipDataFlush = true; // data lines stay in flight
    const std::string payload(700, 'q');
    for (int i = 0; i < 3; i++) {
        const int ino = fs.create("recall" + std::to_string(i));
        if (ino < 0 ||
            fs.write(ino, 0, payload.data(), payload.size()) !=
                static_cast<long>(payload.size())) {
            panic("pmfs setup failed");
        }
    }
    if (seed_meta_corruption) {
        // An unjournaled in-place metadata store: flip an in-use
        // inode's size without a journal entry. Recovery cannot
        // restore it, so states where it persisted fail the walk.
        pmfs::Superblock sb;
        std::memcpy(&sb, fs.pmPool().base(), sizeof(sb));
        auto *size_field = reinterpret_cast<uint64_t *>(
            fs.pmPool().base() + sb.inodeTableOffset +
            offsetof(pmfs::Inode, size));
        pmAssign(size_field, uint64_t(9999));
    }

    const auto result = Yat::explorePool(
        fs.pmPool(),
        [&](pmem::TrackedImage &image) {
            pmfs::Pmfs::recoverImage(image);
            const auto sb = image.readAt<pmfs::Superblock>(0);
            if (sb.magic != pmfs::Superblock::kMagic)
                return false;
            size_t in_use = 0;
            for (uint64_t i = 0; i < sb.nInodes; i++) {
                const auto ino = image.readAt<pmfs::Inode>(
                    sb.inodeTableOffset + i * sizeof(pmfs::Inode));
                if (!ino.inUse)
                    continue;
                in_use++;
                if (std::strncmp(ino.name, "recall", 6) != 0 ||
                    ino.size != 700)
                    return false;
            }
            return in_use == 3;
        },
        representativeOptions());
    pmtestDetachPool();
    pmtestExit();
    return result;
}

std::vector<OracleCase>
buildOracleCampaign()
{
    return {
        {"txlib-open-tx-clean", false,
         [] { return runTxlibCase(false); }},
        {"txlib-unlogged-write", true,
         [] { return runTxlibCase(true); }},
        {"atomic-map-clean", false,
         [] { return runAtomicMapCase(false); }},
        {"atomic-map-skip-flush", true,
         [] { return runAtomicMapCase(true); }},
        {"pmfs-journaled-clean", false,
         [] { return runPmfsCase(false); }},
        {"pmfs-unjournaled-meta", true,
         [] { return runPmfsCase(true); }},
    };
}

OracleCampaign
runOracleCampaign(const std::vector<OracleCase> &cases)
{
    OracleCampaign out;
    for (const auto &c : cases) {
        const auto result = c.run();
        out.statesTested += result.statesTested;
        out.statesCovered += result.statesCovered;
        const bool flagged = result.failures > 0;
        if (c.seeded) {
            out.seeded++;
            if (flagged)
                out.found++;
            else
                out.missed.push_back(c.id);
        } else {
            out.clean++;
            if (flagged) {
                out.falsePositives++;
                out.missed.push_back(std::string(c.id) +
                                     " (false positive)");
            }
        }
    }
    return out;
}

/** Seed-corpus recall: every seeded trace must produce a finding. */
void
runSeedCorpus(size_t *total, size_t *detected,
              std::vector<std::string> *missed)
{
    core::Engine engine(core::ModelKind::X86);
    for (const auto &seed : seedCorpusTraces()) {
        (*total)++;
        const auto report = engine.check(seed.trace);
        if (!report.findings().empty())
            (*detected)++;
        else
            missed->push_back(seed.name);
    }
}

void
writeCampaignJson(JsonWriter &w, const char *name,
                  const workloads::CampaignOutcome &outcome)
{
    w.key(name).beginObject();
    w.member("seeded", outcome.total);
    w.member("detected", outcome.detected);
    w.key("by_category").beginObject();
    for (const auto &[category, counts] : outcome.byCategory) {
        w.key(category).beginObject();
        w.member("seeded", counts.first);
        w.member("detected", counts.second);
        w.endObject();
    }
    w.endObject();
    w.key("missed").beginArray();
    for (const auto &id : outcome.missed)
        w.value(id);
    w.endArray();
    w.endObject();
}

int
run(const std::string &json_path)
{
    // Checker recall: the injected-bug campaigns + the seed corpus.
    const auto table5 =
        workloads::runCampaign(workloads::buildTable5Campaign());
    const auto table6 =
        workloads::runCampaign(workloads::buildTable6Campaign());
    size_t corpus_total = 0, corpus_detected = 0;
    std::vector<std::string> corpus_missed;
    runSeedCorpus(&corpus_total, &corpus_detected, &corpus_missed);

    // Oracle recall: representative exploration on ground-truth
    // scenarios.
    const auto oracle = runOracleCampaign(buildOracleCampaign());

    const size_t checker_seeded =
        table5.total + table6.total + corpus_total;
    const size_t checker_detected =
        table5.detected + table6.detected + corpus_detected;
    const double checker_recall =
        checker_seeded == 0
            ? 1.0
            : double(checker_detected) / double(checker_seeded);
    const double oracle_recall =
        oracle.seeded == 0 ? 1.0
                           : double(oracle.found) /
                                 double(oracle.seeded);
    const double oracle_precision =
        oracle.found + oracle.falsePositives == 0
            ? 1.0
            : double(oracle.found) /
                  double(oracle.found + oracle.falsePositives);
    const double reduction =
        oracle.statesTested == 0
            ? 1.0
            : double(oracle.statesCovered) /
                  double(oracle.statesTested);

    JsonWriter w;
    w.beginObject();
    w.member("schema", "pmtest-recall-v1");
    w.member("tool", "pmtest_recall");
    w.key("checker").beginObject();
    writeCampaignJson(w, "table5", table5);
    writeCampaignJson(w, "table6", table6);
    w.key("seed_corpus").beginObject();
    w.member("seeded", corpus_total);
    w.member("detected", corpus_detected);
    w.key("missed").beginArray();
    for (const auto &name : corpus_missed)
        w.value(name);
    w.endArray();
    w.endObject();
    w.member("seeded", checker_seeded);
    w.member("detected", checker_detected);
    w.member("recall", checker_recall);
    w.endObject();
    w.key("oracle").beginObject();
    w.member("seeded", oracle.seeded);
    w.member("found", oracle.found);
    w.member("clean", oracle.clean);
    w.member("false_positives", oracle.falsePositives);
    w.member("recall", oracle_recall);
    w.member("precision", oracle_precision);
    w.member("states_tested", oracle.statesTested);
    w.member("states_covered", oracle.statesCovered);
    w.member("reduction_ratio", reduction);
    w.key("missed").beginArray();
    for (const auto &id : oracle.missed)
        w.value(id);
    w.endArray();
    w.endObject();
    w.endObject();

    std::string write_error;
    if (!writeJsonFile(json_path.empty() ? "-" : json_path, w,
                       &write_error)) {
        std::fprintf(stderr, "%s\n", write_error.c_str());
        return 2;
    }

    std::fprintf(stderr,
                 "checker: %zu/%zu seeded bugs detected "
                 "(recall %.3f)\n"
                 "oracle:  %zu/%zu seeded corruptions found, %zu "
                 "false positives (recall %.3f, precision %.3f)\n"
                 "oracle states: %llu tested covering %llu "
                 "(%.1fx reduction)\n",
                 checker_detected, checker_seeded, checker_recall,
                 oracle.found, oracle.seeded, oracle.falsePositives,
                 oracle_recall, oracle_precision,
                 static_cast<unsigned long long>(oracle.statesTested),
                 static_cast<unsigned long long>(
                     oracle.statesCovered),
                 reduction);
    return 0;
}

} // namespace
} // namespace pmtest

int
main(int argc, char **argv)
{
    std::string json_path;
    size_t metrics_port = static_cast<size_t>(-1);
    std::string event_log_path;

    pmtest::util::CliParser cli("pmtest_recall");
    cli.addString("--json", &json_path,
                  "write the pmtest-recall-v1 document (\"-\" = "
                  "stdout)");
    cli.addSize("--metrics-port", &metrics_port,
                "serve /metrics on 127.0.0.1:N (0 = ephemeral)", 0,
                65535);
    cli.addString("--event-log", &event_log_path,
                  "append structured JSONL events (\"-\" = stdout)");
    cli.positionalCount(0, 0);
    const auto status = cli.parse(argc, argv);
    if (status != pmtest::util::CliStatus::Ok)
        return pmtest::util::cliExitCode(status);

    // No engine pool or trace source here — the session-services
    // bracket (the same one core::runCheckTool runs on) still exports
    // the telemetry counters (oracle states, hint replays), process
    // gauges, and the run_start/run_stop event pair.
    pmtest::core::SessionServices services;
    pmtest::obs::ServiceOptions service_options;
    service_options.tool = "pmtest_recall";
    if (metrics_port != static_cast<size_t>(-1))
        service_options.metricsPort =
            static_cast<int32_t>(metrics_port);
    service_options.eventLogPath = event_log_path;
    std::string service_error;
    if (!services.start(std::move(service_options),
                        &service_error)) {
        std::fprintf(stderr, "%s\n", service_error.c_str());
        return 2;
    }
    services.emitRunStart("pmtest_recall");

    int rc;
    {
        // The campaigns intentionally run buggy workloads; keep
        // their expected-failure logging quiet.
        pmtest::ScopedLogSilencer quiet;
        rc = pmtest::run(json_path);
    }
    services.emitRunStop(rc);
    services.stop();
    return rc;
}
