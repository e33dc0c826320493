/**
 * @file
 * Findings carry fixed-size evidence and render their message only at
 * output (findingMessage). This test keeps verbatim copies of the
 * string formatters the kernel used while it built every message as
 * it detected the finding, and a test-local replay that feeds them
 * the same inputs the old kernel had: the op's range, the shadow
 * memory's open range and epoch, the folded persist intervals of an
 * ordering check, the transaction depth. On random x86, HOPS and ARM
 * traces (with ops each model does not define), the seeded-bug
 * corpus, the paper's Fig. 1 and Fig. 4 traces (hand-built, and Fig. 1
 * captured from the running programs) and the pmemcheck baseline,
 * every finding's rendered message must equal the frozen text byte
 * for byte, in detection order.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/pmemcheck.hh"
#include "core/api.hh"
#include "core/engine.hh"
#include "core/interval_map.hh"
#include "trace/seed_corpus.hh"
#include "txlib/obj_pool.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace pmtest::core
{
namespace
{

// ---- Frozen formatters (verbatim from the message-building kernel) ----

std::string
frozenPersistWhy(const AddrRange &range, const ShadowMemory &shadow)
{
    AddrRange open;
    if (shadow.allPersisted(range, &open))
        return "";
    return "data in " + open.str() +
           " may not have persisted (persist interval still open "
           "at epoch " +
           std::to_string(shadow.timestamp()) + ")";
}

/** The fold the ordering rules used: ties go to the later entry. */
bool
frozenFold(const AddrRange &range, const ShadowMemory &shadow,
           Epoch Interval::*bound, bool latest, Epoch *epoch,
           AddrRange *worst)
{
    bool any = false;
    *epoch = latest ? 0 : kInfEpoch;
    shadow.forEachPersist(range, [&](const AddrRange &r,
                                     const Interval &i) {
        if (latest ? i.*bound >= *epoch : i.*bound <= *epoch) {
            *epoch = i.*bound;
            *worst = r;
        }
        any = true;
    });
    return any;
}

std::string
frozenOrderWhy(const AddrRange &a, const AddrRange &b,
               const ShadowMemory &shadow, bool hops)
{
    Epoch a_epoch = 0, b_epoch = 0;
    AddrRange a_worst, b_worst;
    if (!frozenFold(a, shadow, hops ? &Interval::begin : &Interval::end,
                    true, &a_epoch, &a_worst))
        return "";
    if (!frozenFold(b, shadow, &Interval::begin, false, &b_epoch,
                    &b_worst))
        return "";
    if (hops) {
        if (a_epoch < b_epoch)
            return "";
        return "write to " + a_worst.str() + " (epoch " +
               std::to_string(a_epoch) +
               ") is not separated by a fence from write to " +
               b_worst.str() + " (epoch " + std::to_string(b_epoch) +
               ")";
    }
    if (a_epoch <= b_epoch)
        return "";
    return "persist interval of " + a_worst.str() + " (ends " +
           (a_epoch == kInfEpoch ? std::string("never")
                                 : std::to_string(a_epoch)) +
           ") is not guaranteed before that of " + b_worst.str() +
           " (may begin at epoch " + std::to_string(b_epoch) + ")";
}

std::string
frozenClwbWarn(const ClwbScan &scan, const AddrRange &range, bool arm)
{
    if (arm) {
        if (scan.redundant)
            return "DC CVAP of " + range.str() +
                   " duplicates an earlier clean that has not "
                   "been synchronized yet";
        return "DC CVAP of " + range.str() +
               (scan.unmodified ? " targets data never modified in this "
                                  "trace"
                                : " targets data that is already "
                                  "persistent");
    }
    if (scan.redundant)
        return "writeback of " + range.str() +
               " duplicates an earlier writeback that has not "
               "been fenced yet";
    if (scan.unmodified)
        return "writeback of " + range.str() +
               " targets data never modified in this trace";
    return "writeback of " + range.str() +
           " targets data that is already persistent";
}

std::string
frozenUndefined(const PmOp &op, const char *model_name)
{
    return std::string(opTypeName(op.type)) +
           " is not defined by the " + model_name +
           " persistency model";
}

// ---- The replay: the old kernel's inputs, op by op ----

using Expected = std::vector<std::pair<size_t, std::string>>;

bool
isFlush(OpType t)
{
    return t == OpType::Clwb || t == OpType::ClflushOpt ||
           t == OpType::Clflush || t == OpType::DcCvap;
}

bool
defines(ModelKind kind, OpType t)
{
    switch (kind) {
      case ModelKind::X86:
        return t == OpType::Write || t == OpType::Clwb ||
               t == OpType::ClflushOpt || t == OpType::Clflush ||
               t == OpType::Sfence;
      case ModelKind::Hops:
        return t == OpType::Write || t == OpType::Ofence ||
               t == OpType::Dfence;
      case ModelKind::Arm:
        return t == OpType::Write || t == OpType::DcCvap ||
               t == OpType::Dsb;
    }
    return false;
}

/**
 * Every message the message-building kernel emitted for @p trace, in
 * detection order, with its op index. Ranges removed from the testing
 * scope are skipped where the engine skips them.
 */
Expected
frozenMessages(const Trace &trace, ModelKind kind)
{
    const std::unique_ptr<PersistencyModel> model = makeModel(kind);
    ShadowMemory shadow;
    shadow.setTrackOpenWrites(model->tracksOpenWrites());
    Report scratch;
    IntervalMap<bool> excluded, logged;
    int depth = 0;
    bool checking = false;
    std::vector<std::pair<AddrRange, SourceLocation>> tx_writes;
    Expected out;

    const auto &ops = trace.ops();
    for (size_t i = 0; i < ops.size(); i++) {
        const PmOp &op = ops[i];
        const AddrRange range(op.addr, op.size);
        switch (op.type) {
          case OpType::Exclude:
            excluded.assign(range, true);
            continue;
          case OpType::Include:
            excluded.erase(range);
            continue;
          case OpType::TxBegin:
            depth++;
            continue;
          case OpType::TxEnd:
            if (depth == 0) {
                out.emplace_back(i, "TX_END without a matching "
                                    "TX_BEGIN");
                continue;
            }
            if (--depth == 0)
                logged.clear();
            continue;
          case OpType::TxAdd:
            if (excluded.covers(range))
                continue;
            if (depth == 0) {
                out.emplace_back(i, "TX_ADD of " + range.str() +
                                        " outside any transaction");
                continue;
            }
            if (logged.covers(range))
                out.emplace_back(i, "object " + range.str() +
                                        " is already in the undo log "
                                        "of this transaction");
            logged.assign(range, true);
            continue;
          case OpType::CheckIsPersist:
            if (excluded.covers(range))
                continue;
            if (std::string why = frozenPersistWhy(range, shadow);
                !why.empty())
                out.emplace_back(i, std::move(why));
            continue;
          case OpType::CheckIsOrderedBefore: {
            const AddrRange b(op.addrB, op.sizeB);
            if (excluded.covers(range) || excluded.covers(b))
                continue;
            if (std::string why = frozenOrderWhy(
                    range, b, shadow, kind == ModelKind::Hops);
                !why.empty())
                out.emplace_back(i, std::move(why));
            continue;
          }
          case OpType::TxCheckStart:
            // Newer than the frozen kernel: a nested start is
            // reported and the open region keeps its writes.
            if (checking) {
                out.emplace_back(i, "TX_CHECKER_START inside an open "
                                    "TX_CHECKER region");
                continue;
            }
            checking = true;
            tx_writes.clear();
            continue;
          case OpType::TxCheckEnd:
            if (!checking) {
                out.emplace_back(i, "TX_CHECKER_END without "
                                    "TX_CHECKER_START");
                continue;
            }
            checking = false;
            if (depth > 0)
                out.emplace_back(
                    i, "transaction still open at TX_CHECKER_END");
            for (const auto &[write, write_loc] : tx_writes) {
                if (excluded.covers(write))
                    continue;
                const std::string why = frozenPersistWhy(write, shadow);
                if (!why.empty())
                    out.emplace_back(
                        i, "update not persisted when the transaction "
                           "ended: " +
                               why + " (write at " + write_loc.str() +
                               ")");
            }
            tx_writes.clear();
            continue;
          default:
            break;
        }

        // A hardware op. The engine skips the ranged x86 ops and
        // writes whose range is out of scope.
        const bool ranged = op.type == OpType::Write ||
                            op.type == OpType::Clwb ||
                            op.type == OpType::ClflushOpt ||
                            op.type == OpType::Clflush;
        if (ranged && excluded.covers(range))
            continue;
        if (op.type == OpType::Write) {
            if (depth > 0 && !logged.covers(range))
                out.emplace_back(i, "write to " + range.str() +
                                        " inside a transaction without "
                                        "a log backup (missing "
                                        "TX_ADD)");
            if (checking)
                tx_writes.emplace_back(range, op.loc);
        }
        if (!defines(kind, op.type)) {
            out.emplace_back(i, frozenUndefined(op, model->name()));
        } else if (isFlush(op.type)) {
            const ClwbScan scan = shadow.recordClwb(range);
            if (scan.any())
                out.emplace_back(i, frozenClwbWarn(
                                        scan, range,
                                        kind == ModelKind::Arm));
        } else {
            model->apply(op, shadow, scratch, i); // a write or a fence
        }
    }
    if (depth > 0)
        out.emplace_back(ops.size(), "trace ends with " +
                                         std::to_string(depth) +
                                         " unterminated transaction(s)");
    // Newer than the frozen kernel: an unclosed TX checker region.
    if (checking)
        out.emplace_back(ops.size(),
                         "trace ends inside a TX_CHECKER region");
    return out;
}

/** The engine's findings as (opIndex, rendered message). */
Expected
rendered(const Report &report)
{
    Expected out;
    for (const Finding &f : report.findings()) {
        EXPECT_EQ(causeKind(f.cause), f.kind) << causeName(f.cause);
        out.emplace_back(f.opIndex, findingMessage(f));
    }
    return out;
}

void
expectRendersFrozen(const Trace &trace, ModelKind kind,
                    const std::string &what)
{
    Engine engine(kind);
    const Report report = engine.check(trace);
    const Expected want = frozenMessages(trace, kind);
    ASSERT_EQ(rendered(report), want) << what;
    // Finding::str() embeds the same text.
    for (const Finding &f : report.findings())
        EXPECT_NE(f.str().find(findingMessage(f)), std::string::npos);
}

// ---- Traces ----

const SourceLocation kLocs[] = {{"app/a.cc", 10}, {"app/b.cc", 20},
                                {"lib/tx.cc", 7}};

PmOp
op(OpType type, uint64_t addr = 0, uint64_t size = 0, uint64_t addr_b = 0,
   uint64_t size_b = 0, SourceLocation loc = {})
{
    return PmOp{type, addr, size, addr_b, size_b, loc};
}

/**
 * Random trace over 16 lines: every hardware op type (so each model
 * meets ops it does not define), transactions, both checkers, the TX
 * checker, unmatched TX_END / TX_CHECKER_END, and ranges taken out of
 * and put back into the testing scope.
 */
Trace
randomTrace(Rng &rng, uint64_t id)
{
    static const OpType kHardware[] = {
        OpType::Clwb,   OpType::ClflushOpt, OpType::Clflush,
        OpType::DcCvap, OpType::Sfence,     OpType::Ofence,
        OpType::Dfence, OpType::Dsb};
    Trace trace(id, 0);
    const size_t n = 10 + rng.below(60);
    for (size_t i = 0; i < n; i++) {
        const uint64_t addr = 64 * rng.below(16) + 8 * rng.below(4);
        const uint64_t size = 8 + 8 * rng.below(12);
        const SourceLocation loc = kLocs[rng.below(3)];
        const uint64_t dice = rng.below(22);
        if (dice < 6) {
            trace.append(op(OpType::Write, addr, size, 0, 0, loc));
        } else if (dice < 11) {
            trace.append(
                op(kHardware[rng.below(8)], addr, 64, 0, 0, loc));
        } else if (dice < 13) {
            trace.append(op(OpType::CheckIsPersist, addr, size, 0, 0, loc));
        } else if (dice < 15) {
            trace.append(op(OpType::CheckIsOrderedBefore, addr, size,
                            64 * rng.below(16), 8 + 8 * rng.below(8),
                            loc));
        } else if (dice == 15) {
            trace.append(op(OpType::TxBegin));
        } else if (dice == 16) {
            trace.append(op(OpType::TxEnd, 0, 0, 0, 0, loc));
        } else if (dice == 17) {
            trace.append(op(OpType::TxAdd, addr, size, 0, 0, loc));
        } else if (dice == 18) {
            trace.append(op(OpType::TxCheckStart));
        } else if (dice == 19) {
            trace.append(op(OpType::TxCheckEnd, 0, 0, 0, 0, loc));
        } else {
            trace.append(op(dice == 20 ? OpType::Exclude : OpType::Include,
                            64 * rng.below(16), 64 * (1 + rng.below(2))));
        }
    }
    return trace;
}

/**
 * The paper's traces. Fig. 4: sfence; write A; clwb A; write B;
 * sfence; isOrderedBefore(A, B); isPersist(B). Fig. 1a: the array
 * update without its barriers. Fig. 1b: a list append whose head
 * update lacks TX_ADD, inside a TX checker.
 */
std::vector<Trace>
paperTraces()
{
    const SourceLocation here{"paper.cc", 1};
    Trace fig4(1, 0);
    fig4.append(op(OpType::Sfence));
    fig4.append(op(OpType::Write, 0x10, 64, 0, 0, here));
    fig4.append(op(OpType::Clwb, 0x10, 64, 0, 0, here));
    fig4.append(op(OpType::Write, 0x50, 64, 0, 0, here));
    fig4.append(op(OpType::Sfence));
    fig4.append(op(OpType::CheckIsOrderedBefore, 0x10, 64, 0x50, 64,
                   here));
    fig4.append(op(OpType::CheckIsPersist, 0x50, 64, 0, 0, here));

    Trace fig1a(2, 0);
    fig1a.append(op(OpType::Write, 0x100, 8, 0, 0, here)); // backup.val
    fig1a.append(op(OpType::Write, 0x108, 8, 0, 0, here)); // valid = 1
    fig1a.append(op(OpType::Clwb, 0x108, 8, 0, 0, here));
    fig1a.append(op(OpType::Sfence));
    fig1a.append(op(OpType::CheckIsOrderedBefore, 0x100, 8, 0x108, 8,
                    here));
    fig1a.append(op(OpType::Write, 0x200, 8, 0, 0, here)); // array[i]
    fig1a.append(op(OpType::Write, 0x108, 8, 0, 0, here)); // valid = 0
    fig1a.append(op(OpType::Clwb, 0x108, 8, 0, 0, here));
    fig1a.append(op(OpType::Sfence));
    fig1a.append(op(OpType::CheckIsOrderedBefore, 0x200, 8, 0x108, 8,
                    here));

    Trace fig1b(3, 0);
    fig1b.append(op(OpType::TxCheckStart));
    fig1b.append(op(OpType::TxBegin));
    fig1b.append(op(OpType::TxAdd, 0x400, 32, 0, 0, here)); // node
    fig1b.append(op(OpType::Write, 0x400, 32, 0, 0, here));
    fig1b.append(op(OpType::Write, 0x300, 8, 0, 0, here)); // head
    fig1b.append(op(OpType::TxAdd, 0x400, 16, 0, 0, here)); // again
    fig1b.append(op(OpType::TxEnd));
    fig1b.append(op(OpType::TxCheckEnd, 0, 0, 0, 0, here));
    fig1b.append(op(OpType::TxBegin)); // never closed
    return {fig4, fig1a, fig1b};
}

/** One thread's trace of @p body, captured through the live API. */
template <typename Fn>
Trace
captureTrace(Fn &&body)
{
    ScopedLogSilencer quiet;
    pmtestInit(Config{});
    pmtestThreadInit();
    pmtestStart();
    body();
    Trace trace = pmtestSealTrace();
    pmtestEnd();
    pmtestExit();
    return trace;
}

/** Fig. 1a as the program runs it: the array update, both barriers
 *  missing, with the two ordering checkers a programmer would add. */
Trace
capturedFig1a()
{
    alignas(64) static uint64_t array[8];
    alignas(64) static uint64_t backup[2]; // val, valid
    return captureTrace([] {
        pmAssign(&backup[0], array[2], PMTEST_HERE);
        pmAssign<uint64_t>(&backup[1], 1, PMTEST_HERE);
        PMTEST_CLWB(&backup[1], sizeof(uint64_t));
        PMTEST_SFENCE();
        PMTEST_IS_ORDERED_BEFORE(&backup[0], sizeof(uint64_t),
                                 &backup[1], sizeof(uint64_t));
        pmAssign<uint64_t>(&array[2], 42, PMTEST_HERE);
        pmAssign<uint64_t>(&backup[1], 0, PMTEST_HERE);
        PMTEST_CLWB(&backup[1], sizeof(uint64_t));
        PMTEST_SFENCE();
        PMTEST_IS_ORDERED_BEFORE(&array[2], sizeof(uint64_t),
                                 &backup[1], sizeof(uint64_t));
    });
}

/** Fig. 1b as the program runs it: a transactional list append whose
 *  length update lacks its TX_ADD, inside a TX checker. */
Trace
capturedFig1b()
{
    struct Node
    {
        uint64_t value;
        Node *next;
    };
    struct List
    {
        Node *head;
        uint64_t length;
    };
    static txlib::ObjPool pool(1 << 20);
    List *list = pool.root<List>();
    return captureTrace([&] {
        PMTEST_TX_CHECKER_START();
        {
            txlib::TxScope tx(pool, PMTEST_HERE);
            Node *node = pool.txAlloc<Node>(PMTEST_HERE);
            const Node init{7, list->head};
            pool.txWrite(node, &init, sizeof(init), PMTEST_HERE);
            pool.txAdd(&list->head, sizeof(list->head), PMTEST_HERE);
            pool.txAssign(&list->head, node, PMTEST_HERE);
            pool.txAssign(&list->length, list->length + 1, PMTEST_HERE);
        }
        PMTEST_TX_CHECKER_END();
    });
}

const ModelKind kModels[] = {ModelKind::X86, ModelKind::Hops,
                             ModelKind::Arm};

TEST(RenderEquivalenceTest, RandomTracesOnEveryModel)
{
    for (const ModelKind kind : kModels) {
        Rng rng(0x7e57 + static_cast<uint64_t>(kind));
        size_t findings = 0;
        for (int round = 0; round < 300; round++) {
            const Trace trace = randomTrace(rng, round);
            findings += frozenMessages(trace, kind).size();
            expectRendersFrozen(trace, kind,
                                "round " + std::to_string(round));
        }
        // The traces must actually exercise the renderer.
        EXPECT_GT(findings, 1000u);
    }
}

TEST(RenderEquivalenceTest, EveryCauseIsExercised)
{
    // The random traces, the paper traces and the seed corpus reach
    // every kernel cause on some model (the pmemcheck causes have
    // their own test).
    std::vector<bool> seen(static_cast<size_t>(kLastCause) + 1);
    for (const ModelKind kind : kModels) {
        Engine engine(kind);
        Rng rng(0x7e57 + static_cast<uint64_t>(kind));
        std::vector<Trace> traces = paperTraces();
        for (const SeedTrace &seed : seedCorpusTraces())
            traces.push_back(seed.trace);
        for (int round = 0; round < 1000; round++)
            traces.push_back(randomTrace(rng, round));
        for (const Trace &trace : traces) {
            const Report report = engine.check(trace);
            for (const Finding &f : report.findings())
                seen[static_cast<size_t>(f.cause)] = true;
        }
    }
    for (size_t c = 0; c < seen.size(); c++) {
        const Cause cause = static_cast<Cause>(c);
        const bool pmemcheck = cause == Cause::PmemcheckStore ||
                               cause == Cause::PmemcheckStoreAtExit ||
                               cause == Cause::PmemcheckReflush ||
                               cause == Cause::PmemcheckCleanFlush;
        EXPECT_EQ(seen[c], !pmemcheck) << causeName(cause);
    }
}

TEST(RenderEquivalenceTest, PaperTraces)
{
    for (const ModelKind kind : kModels) {
        for (const Trace &trace : paperTraces())
            expectRendersFrozen(trace, kind,
                                "paper trace " +
                                    std::to_string(trace.id()));
    }
    // Spot-check one literal from the paper's Fig. 4 on x86.
    Engine engine(ModelKind::X86);
    const Report fig4 = engine.check(paperTraces()[0]);
    ASSERT_EQ(fig4.findings().size(), 2u);
    EXPECT_EQ(findingMessage(fig4.findings()[0]),
              "persist interval of [0x10,0x50) (ends 2) is not "
              "guaranteed before that of [0x50,0x90) (may begin at "
              "epoch 1)");
}

TEST(RenderEquivalenceTest, CapturedPaperExamples)
{
    // The paper's Fig. 1 programs run under the live API, as
    // tests/integration/paper_examples_test.cc runs them.
    const Trace fig1a = capturedFig1a();
    const Trace fig1b = capturedFig1b();
    ASSERT_FALSE(fig1a.ops().empty());
    ASSERT_FALSE(fig1b.ops().empty());
    for (const ModelKind kind : kModels) {
        expectRendersFrozen(fig1a, kind, "captured Fig. 1a");
        expectRendersFrozen(fig1b, kind, "captured Fig. 1b");
    }
    // Both bugs are found on x86.
    EXPECT_FALSE(frozenMessages(fig1a, ModelKind::X86).empty());
    EXPECT_FALSE(frozenMessages(fig1b, ModelKind::X86).empty());
}

TEST(RenderEquivalenceTest, SeedCorpus)
{
    for (const ModelKind kind : kModels)
        for (const SeedTrace &seed : seedCorpusTraces())
            expectRendersFrozen(seed.trace, kind, seed.name);
}

TEST(RenderEquivalenceTest, PmemcheckBaseline)
{
    // The frozen pmemcheck texts: one per flush WARN, one per failed
    // isPersist, one for the first word still dirty at exit.
    Rng rng(0x9e3);
    for (int round = 0; round < 50; round++) {
        baseline::Pmemcheck pm;
        std::vector<Trace> traces;
        for (uint64_t t = 0; t < 4; t++)
            traces.push_back(randomTrace(rng, t));
        for (const Trace &trace : traces)
            pm.onTrace(trace);
        const size_t during = pm.report().findings().size();
        const Report report = pm.finish();
        ASSERT_GE(report.findings().size(), during);
        for (size_t i = 0; i < report.findings().size(); i++) {
            const Finding &f = report.findings()[i];
            std::string want;
            if (i >= during) {
                const AddrRange word = f.evidence.rangeA;
                EXPECT_EQ(word.size, 8u);
                EXPECT_EQ(word.addr % 8, 0u);
                want = "store not made persistent at exit (word at " +
                       AddrRange((word.addr >> 3) << 3, 8).str() + ")";
            } else if (f.kind == FindingKind::NotPersisted) {
                want = "store not made persistent";
            } else {
                want = "flush of range with no dirty stores";
            }
            EXPECT_EQ(causeKind(f.cause), f.kind);
            EXPECT_EQ(findingMessage(f), want) << "round " << round;
        }
    }
}

} // namespace
} // namespace pmtest::core
