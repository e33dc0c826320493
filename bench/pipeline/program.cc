#include "bench/pipeline/program.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/api.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace pmtest::bench
{

namespace
{

constexpr size_t kObject = 64;

/**
 * Where recorded addresses are rebased to: the buffer's real address
 * depends on the allocator and ASLR, and must not leak into the
 * recorded files.
 */
constexpr uint64_t kRecordedBase = 0x100000000ULL;

/**
 * Fixed source locations, so the recorded string tables do not depend
 * on the path the benchmark was built from.
 */
constexpr SourceLocation kWrite{"pm_app.c", 11};
constexpr SourceLocation kFlush{"pm_app.c", 12};
constexpr SourceLocation kFence{"pm_app.c", 13};
constexpr SourceLocation kCheck{"pm_app.c", 14};
constexpr SourceLocation kTx{"pm_tx.c", 21};
constexpr SourceLocation kTxAdd{"pm_tx.c", 22};

} // namespace

SyntheticProgram::SyntheticProgram(const SyntheticSpec &spec,
                                   uint64_t seed)
    : spec_(spec)
{
    Rng rng(seed);
    const size_t total = spec.files * spec.tracesPerFile;

    // Trace lengths are a fixed set that the seed only shuffles, so
    // every seed does the same amount of work per pass.
    std::vector<size_t> lengths(total);
    for (size_t i = 0; i < total; i++) {
        lengths[i] = total == 1
                         ? spec.maxRounds
                         : spec.minRounds + (spec.maxRounds -
                                             spec.minRounds) *
                                                i / (total - 1);
    }
    for (size_t i = total; i > 1; i--)
        std::swap(lengths[i - 1], lengths[rng.below(i)]);

    const auto slot = [&] {
        return static_cast<uint32_t>(rng.below(spec.slots));
    };
    const auto other = [&](uint32_t a) {
        const auto b = static_cast<uint32_t>(rng.below(spec.slots - 1));
        return b >= a ? b + 1 : b;
    };

    // Bugs: one per block of bugEvery consecutive rounds (counted
    // across each file), at a seeded position within the block.
    plans_.resize(total);
    size_t block_pos = 0;
    size_t bug_at = 0;
    for (size_t t = 0; t < total; t++) {
        if (t % spec.tracesPerFile == 0)
            block_pos = 0;
        auto &plan = plans_[t];
        plan.reserve(lengths[t]);
        for (size_t r = 0; r < lengths[t]; r++, block_pos++) {
            if (block_pos % spec.bugEvery == 0)
                bug_at = block_pos + rng.below(spec.bugEvery);
            Round round{};
            round.a = slot();
            if (block_pos == bug_at) {
                static constexpr RoundKind kBugs[] = {
                    RoundKind::BugNotPersisted,
                    RoundKind::BugNotOrdered,
                    RoundKind::BugMissingLog,
                    RoundKind::BugRedundantFlush,
                };
                round.kind = spec.mixedBugs ? kBugs[rng.below(4)]
                                            : RoundKind::BugNotPersisted;
            } else {
                const uint64_t dice = rng.below(100);
                round.kind = dice < spec.persistPct ? RoundKind::Persist
                             : dice < spec.persistPct + spec.orderedPct
                                 ? RoundKind::Ordered
                                 : RoundKind::Tx;
            }
            if (round.kind == RoundKind::Ordered ||
                round.kind == RoundKind::BugNotOrdered)
                round.b = other(round.a);
            plan.push_back(round);
        }
        rounds_ += plan.size();
    }

    // The answer follows from the plan alone.
    answer_.traces = total;
    for (size_t t = 0; t < total; t++) {
        uint64_t op = 0;
        for (const Round &round : plans_[t]) {
            size_t offset = 0;
            core::FindingKind kind{};
            if (roundFinding(round.kind, &offset, &kind)) {
                answer_.findings.push_back(
                    {static_cast<uint32_t>(t / spec.tracesPerFile),
                     t % spec.tracesPerFile, op + offset, kind});
            }
            op += roundOps(round.kind);
        }
        answer_.ops += op;
    }
    std::sort(answer_.findings.begin(), answer_.findings.end());

    buffer_ = static_cast<uint8_t *>(
        std::aligned_alloc(kObject, spec.slots * kObject));
    if (!buffer_)
        fatal("bench_pipeline: cannot allocate the PM buffer");
    for (size_t i = 0; i < kObject; i++)
        payload_[i] = static_cast<uint8_t>(rng.next());
}

SyntheticProgram::~SyntheticProgram() { std::free(buffer_); }

size_t
SyntheticProgram::roundOps(RoundKind kind)
{
    switch (kind) {
      case RoundKind::Persist: return 4;
      case RoundKind::Ordered: return 7;
      case RoundKind::Tx: return 7;
      case RoundKind::BugNotPersisted: return 3;
      case RoundKind::BugNotOrdered: return 6;
      case RoundKind::BugMissingLog: return 6;
      case RoundKind::BugRedundantFlush: return 5;
    }
    return 0;
}

bool
SyntheticProgram::roundFinding(RoundKind kind, size_t *offset,
                               core::FindingKind *finding)
{
    switch (kind) {
      case RoundKind::BugNotPersisted:
        *offset = 2; // the isPersist after a fence with no writeback
        *finding = core::FindingKind::NotPersisted;
        return true;
      case RoundKind::BugNotOrdered:
        *offset = 5; // isOrderedBefore of two writes in one epoch
        *finding = core::FindingKind::NotOrdered;
        return true;
      case RoundKind::BugMissingLog:
        *offset = 1; // the write inside a TX with no TX_ADD
        *finding = core::FindingKind::MissingLog;
        return true;
      case RoundKind::BugRedundantFlush:
        *offset = 2; // the second writeback before the fence
        *finding = core::FindingKind::RedundantFlush;
        return true;
      default:
        return false;
    }
}

void
SyntheticProgram::emit(const Round &round)
{
    uint8_t *a = buffer_ + size_t{round.a} * kObject;
    uint8_t *b = buffer_ + size_t{round.b} * kObject;
    switch (round.kind) {
      case RoundKind::Persist:
        pmStore(a, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmSfence(kFence);
        pmtestIsPersist(a, kObject, kCheck);
        return;
      case RoundKind::Ordered:
        pmStore(a, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmSfence(kFence);
        pmStore(b, payload_, kObject, kWrite);
        pmClwb(b, kObject, kFlush);
        pmSfence(kFence);
        pmtestIsOrderedBefore(a, kObject, b, kObject, kCheck);
        return;
      case RoundKind::Tx:
        pmTxBegin(kTx);
        pmTxAdd(a, kObject, kTxAdd);
        pmStore(a, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmSfence(kFence);
        pmTxEnd(kTx);
        pmtestIsPersist(a, kObject, kCheck);
        return;
      case RoundKind::BugNotPersisted:
        pmStore(a, payload_, kObject, kWrite);
        pmSfence(kFence);
        pmtestIsPersist(a, kObject, kCheck);
        return;
      case RoundKind::BugNotOrdered:
        pmStore(a, payload_, kObject, kWrite);
        pmStore(b, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmClwb(b, kObject, kFlush);
        pmSfence(kFence);
        pmtestIsOrderedBefore(a, kObject, b, kObject, kCheck);
        return;
      case RoundKind::BugMissingLog:
        pmTxBegin(kTx);
        pmStore(a, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmSfence(kFence);
        pmTxEnd(kTx);
        pmtestIsPersist(a, kObject, kCheck);
        return;
      case RoundKind::BugRedundantFlush:
        pmStore(a, payload_, kObject, kWrite);
        pmClwb(a, kObject, kFlush);
        pmClwb(a, kObject, kFlush);
        pmSfence(kFence);
        pmtestIsPersist(a, kObject, kCheck);
        return;
    }
}

void
SyntheticProgram::execute(bool)
{
    // The checkers are part of this program's protocol, so they are
    // emitted in every mode; without a framework they cost a call.
    for (const auto &plan : plans_) {
        for (const Round &round : plan)
            emit(round);
        pmtestSendTrace();
    }
}

void
SyntheticProgram::normalize(Trace &trace) const
{
    const auto base = reinterpret_cast<uint64_t>(buffer_);
    for (PmOp &op : trace.mutableOps()) {
        if (op.size != 0)
            op.addr = op.addr - base + kRecordedBase;
        if (op.sizeB != 0)
            op.addrB = op.addrB - base + kRecordedBase;
    }
}

KvProgram::KvProgram(const KvSpec &spec, uint64_t seed)
{
    config_.ops = spec.requests;
    config_.keySpace = spec.keys;
    config_.valueSize = spec.valueSize;
    config_.seed = seed;

    region_ = std::make_unique<mnemosyne::Region>(size_t{32} << 20);
    server_ = std::make_unique<workloads::MemcachedLite>(*region_);
    const std::string value(spec.valueSize, 'w');
    for (size_t k = 0; k < spec.keys; k++)
        server_->set("key-" + std::to_string(k), value);

    // Every key exists, so every YCSB-A update is an in-place SET that
    // seals exactly one trace. Replaying the client's request stream
    // (runYcsbClient: one key draw, then a 50% update draw) counts them.
    Rng rng(seed);
    for (size_t i = 0; i < config_.ops; i++) {
        rng.below(config_.keySpace);
        if (rng.chance(50, 100))
            sets_++;
    }
}

void
KvProgram::execute(bool checkers)
{
    region_->emitCheckers = checkers;
    workloads::runYcsbClient(*server_, config_);
}

} // namespace pmtest::bench
