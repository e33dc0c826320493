/**
 * @file
 * Equivalence guarantees for the checking kernel: the batched path
 * (which coalesces write runs into sorted shadow splices), the per-op
 * oracle (Dispatch::PerOp), and a reused (state-retaining) engine
 * must all emit byte-identical reports — (kind, opIndex, message) —
 * on random traces, on the Table 1 data-structure workloads, and on
 * the seeded-bug corpus, for every model; and a trace fed in windows
 * (Engine::begin/feed/finish, the offline path) must report exactly
 * what check() reports on it whole. Batching, state reuse and
 * windowing are performance features, never semantic ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/api.hh"
#include "core/engine.hh"
#include "pmds/pm_map.hh"
#include "trace/seed_corpus.hh"
#include "trace/trace_source.hh"
#include "txlib/obj_pool.hh"
#include "util/random.hh"

namespace pmtest::core
{
namespace
{

/** Full report signature: every finding as (kind, opIndex, rendered
 *  message). */
std::vector<std::tuple<int, size_t, std::string>>
signature(const Report &report)
{
    std::vector<std::tuple<int, size_t, std::string>> sig;
    for (const auto &f : report.findings())
        sig.emplace_back(static_cast<int>(f.kind), f.opIndex,
                         findingMessage(f));
    std::sort(sig.begin(), sig.end());
    return sig;
}

/** Random trace of PM ops, TX events and checkers for @p kind. */
Trace
randomTrace(Rng &rng, uint64_t id, ModelKind kind)
{
    Trace trace(id, 0);
    int tx_depth = 0;
    const size_t n = 5 + rng.below(40);
    for (size_t i = 0; i < n; i++) {
        const uint64_t addr = 64 * rng.below(16);
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2:
            trace.append(PmOp::write(addr, 8 + rng.below(56)));
            break;
          case 3:
          case 4:
            trace.append(PmOp::clwb(addr, 64));
            break;
          case 5:
            trace.append(PmOp::sfence());
            break;
          case 6:
            trace.append(PmOp::isPersist(addr, 64));
            break;
          case 7:
            trace.append(
                PmOp::isOrderedBefore(addr, 64, 64 * rng.below(16), 64));
            break;
          case 8:
            trace.append(PmOp{OpType::TxBegin, 0, 0, 0, 0, {}});
            tx_depth++;
            break;
          default:
            if (tx_depth > 0) {
                trace.append(PmOp{OpType::TxAdd, addr, 64, 0, 0, {}});
            } else {
                trace.append(PmOp::sfence());
            }
        }
    }
    while (tx_depth-- > 0)
        trace.append(PmOp{OpType::TxEnd, 0, 0, 0, 0, {}});

    // Rewrite the flush/fence ops into the target model's vocabulary.
    for (auto &op : trace.mutableOps()) {
        if (kind == ModelKind::Hops) {
            if (op.type == OpType::Sfence)
                op.type = OpType::Dfence;
            if (op.type == OpType::Clwb)
                op.type = OpType::Ofence;
        } else if (kind == ModelKind::Arm) {
            if (op.type == OpType::Sfence)
                op.type = OpType::Dsb;
            if (op.type == OpType::Clwb)
                op.type = OpType::DcCvap;
        }
    }
    return trace;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(KernelEquivalenceTest, BatchedMatchesPerOpDispatch)
{
    const ModelKind kind = GetParam();
    Rng rng(0xbeef + static_cast<uint64_t>(kind));

    Engine batched(kind);
    Engine per_op(kind, Engine::Dispatch::PerOp);
    ASSERT_EQ(batched.dispatch(), Engine::Dispatch::Batched);
    ASSERT_EQ(per_op.dispatch(), Engine::Dispatch::PerOp);

    for (int round = 0; round < 60; round++) {
        const Trace trace = randomTrace(rng, round, kind);
        ASSERT_EQ(signature(batched.check(trace)),
                  signature(per_op.check(trace)))
            << "round " << round;
    }
}

TEST_P(KernelEquivalenceTest, WriteRunBatchingMatchesOracle)
{
    // Long write runs are what the batched kernel coalesces; make
    // them adversarial: overlapping writes inside a run (forces the
    // mid-run flush), empty writes (must vanish without a trace, as
    // per-op exclusion-covers treats them vacuously), runs longer
    // than the batch cap, and runs cut short by every other op type.
    const ModelKind kind = GetParam();
    Rng rng(0xfeed + static_cast<uint64_t>(kind));

    Engine batched(kind);
    Engine per_op(kind, Engine::Dispatch::PerOp);

    for (int round = 0; round < 40; round++) {
        Trace trace(round, 0);
        const size_t runs = 1 + rng.below(6);
        for (size_t run = 0; run < runs; run++) {
            const size_t len = 1 + rng.below(80);
            for (size_t w = 0; w < len; w++) {
                const uint64_t addr = 64 * rng.below(24);
                const uint64_t size =
                    rng.below(10) == 0 ? 0 : 8 + rng.below(120);
                trace.append(PmOp::write(addr, size));
            }
            switch (rng.below(4)) {
              case 0:
                trace.append(PmOp::clwb(64 * rng.below(24), 64));
                break;
              case 1:
                trace.append(PmOp::sfence());
                break;
              case 2:
                trace.append(PmOp::isPersist(64 * rng.below(24), 64));
                break;
              default:
                break; // back-to-back runs
            }
        }
        for (auto &op : trace.mutableOps()) {
            if (kind == ModelKind::Hops) {
                if (op.type == OpType::Sfence)
                    op.type = OpType::Dfence;
                if (op.type == OpType::Clwb)
                    op.type = OpType::Ofence;
            } else if (kind == ModelKind::Arm) {
                if (op.type == OpType::Sfence)
                    op.type = OpType::Dsb;
                if (op.type == OpType::Clwb)
                    op.type = OpType::DcCvap;
            }
        }
        ASSERT_EQ(signature(batched.check(trace)),
                  signature(per_op.check(trace)))
            << "round " << round;
    }
}

TEST_P(KernelEquivalenceTest, ReusedEngineMatchesFreshEngine)
{
    const ModelKind kind = GetParam();
    Rng rng(0xcafe + static_cast<uint64_t>(kind));

    // One engine reused across every trace (the pool-worker pattern)
    // against a throwaway engine per trace: leaked state would show up
    // as diverging findings.
    Engine reused(kind);
    for (int round = 0; round < 60; round++) {
        const Trace trace = randomTrace(rng, round, kind);
        Engine fresh(kind);
        const auto expected = signature(fresh.check(trace));
        ASSERT_EQ(signature(reused.check(trace)), expected)
            << "round " << round;
        // And checking the same trace twice on the reused engine must
        // be idempotent.
        ASSERT_EQ(signature(reused.check(trace)), expected)
            << "round " << round;
    }
}

TEST_P(KernelEquivalenceTest, WindowedFeedMatchesWholeTrace)
{
    // Every window size cuts write runs, TX regions and checker
    // regions at different ops: 1 and 2 cut everything, 7 is coprime
    // to the generator's shapes, the offline default covers most
    // traces whole, and one larger than the trace is a single feed.
    const ModelKind kind = GetParam();
    Rng rng(0xd00d + static_cast<uint64_t>(kind));
    for (const Engine::Dispatch dispatch :
         {Engine::Dispatch::Batched, Engine::Dispatch::PerOp}) {
        Engine whole(kind, dispatch);
        Engine windowed(kind, dispatch);
        for (int round = 0; round < 40; round++) {
            // Several random traces back to back: long enough (~100-
            // 300 ops) for small windows to cut every kind of run.
            Trace trace(round, 0);
            trace.setFileId(3);
            for (int part = 0; part < 8; part++)
                trace.append(randomTrace(rng, round, kind).ops());
            const Report expected = whole.check(trace);
            for (const size_t window :
                 {size_t{1}, size_t{2}, size_t{7},
                  TraceConsumer::kWindowOps, trace.size() + 5}) {
                windowed.begin(trace.id(), trace.fileId());
                for (size_t at = 0; at < trace.size(); at += window)
                    windowed.feed(trace.ops().data() + at,
                                  std::min(window, trace.size() - at));
                const Report got = windowed.finish(trace.arena());
                ASSERT_EQ(signature(got), signature(expected))
                    << "round " << round << " window " << window;
                ASSERT_EQ(got.str(), expected.str())
                    << "round " << round << " window " << window;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Models, KernelEquivalenceTest,
                         ::testing::Values(ModelKind::X86, ModelKind::Hops,
                                           ModelKind::Arm),
                         [](const auto &info) {
                             switch (info.param) {
                               case ModelKind::X86:
                                 return "X86";
                               case ModelKind::Hops:
                                 return "Hops";
                               default:
                                 return "Arm";
                             }
                         });

/** Capture the traces a pmds map workload emits instead of checking. */
std::vector<Trace>
recordMapWorkload(pmds::MapKind kind, uint64_t seed)
{
    txlib::ObjPool pool(32 << 20);
    auto map = pmds::makeMap(kind, pool);

    pmtestInit(Config{});
    pmtestThreadInit();

    std::vector<Trace> traces;
    pmtestSetTraceSink([&](Trace &&trace) {
        traces.push_back(std::move(trace));
    });
    pmtestStart();

    Rng rng(seed);
    std::vector<uint8_t> value(64, 0x5a);
    for (int step = 0; step < 200; step++) {
        const uint64_t key = 1 + rng.below(60);
        if (rng.chance(70, 100)) {
            map->insert(key, value.data(), value.size());
        } else {
            map->remove(key);
        }
        if (step % 50 == 49)
            pmtestSendTrace();
    }
    pmtestSendTrace();
    pmtestSetTraceSink(nullptr);
    pmtestExit();
    return traces;
}

TEST(KernelEquivalenceTable1Test, WorkloadReportsAreIdentical)
{
    // The Table 1 structures drive the kernel through the real op mix
    // (TX events, flushes, checkers). Reports from the rewritten
    // kernel must match the per-op oracle finding for finding,
    // message for message.
    const pmds::MapKind kinds[] = {
        pmds::MapKind::Ctree,
        pmds::MapKind::Btree,
        pmds::MapKind::Rbtree,
        pmds::MapKind::HashmapTx,
        pmds::MapKind::HashmapAtomic,
    };

    for (const auto kind : kinds) {
        const std::vector<Trace> traces = recordMapWorkload(kind, 1234);
        ASSERT_FALSE(traces.empty());

        Engine reused(ModelKind::X86);
        size_t ops = 0;
        for (const auto &trace : traces) {
            ops += trace.size();
            Engine oracle(ModelKind::X86, Engine::Dispatch::PerOp);
            ASSERT_EQ(signature(reused.check(trace)),
                      signature(oracle.check(trace)))
                << "map kind " << static_cast<int>(kind);
        }
        EXPECT_GT(ops, 0u);
    }
}

TEST(KernelEquivalenceCorpusTest, SeededBugVerdictsAreIdentical)
{
    // The seeded-bug corpus is the repair loop's regression anchor:
    // both dispatch modes must report each planted bug identically
    // under every model, finding for finding, message for message —
    // and the x86 run must actually find something in every case.
    const std::vector<SeedTrace> corpus = seedCorpusTraces();
    ASSERT_FALSE(corpus.empty());

    for (const ModelKind model :
         {ModelKind::X86, ModelKind::Hops, ModelKind::Arm}) {
        Engine batched(model);
        for (const SeedTrace &seed : corpus) {
            Engine oracle(model, Engine::Dispatch::PerOp);
            const auto expected = signature(oracle.check(seed.trace));
            if (model == ModelKind::X86) {
                EXPECT_FALSE(expected.empty()) << seed.name;
            }
            ASSERT_EQ(signature(batched.check(seed.trace)), expected)
                << seed.name << " model " << static_cast<int>(model);
        }
    }
}

} // namespace
} // namespace pmtest::core
