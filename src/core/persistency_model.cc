#include "core/persistency_model.hh"

#include <memory>

#include "core/arm_model.hh"
#include "core/hops_model.hh"
#include "core/x86_model.hh"

namespace pmtest::core
{

RuleVerdict
PersistencyModel::checkPersisted(const AddrRange &range,
                                 const ShadowMemory &shadow) const
{
    AddrRange open;
    if (shadow.allPersisted(range, &open))
        return {};
    RuleVerdict verdict;
    verdict.holds = false;
    verdict.cause = Cause::PersistOpen;
    verdict.evidence.rangeA = open;
    verdict.evidence.epochA = shadow.timestamp();
    return verdict;
}

PersistencyModel::PersistFold
PersistencyModel::foldPersist(const AddrRange &range,
                              const ShadowMemory &shadow,
                              Epoch Interval::*bound, bool latest)
{
    PersistFold fold;
    fold.epoch = latest ? 0 : kInfEpoch;
    shadow.forEachPersist(range, [&](const AddrRange &r,
                                     const Interval &i) {
        if (latest ? i.*bound >= fold.epoch : i.*bound <= fold.epoch) {
            fold.epoch = i.*bound;
            fold.worst = r;
        }
        fold.any = true;
    });
    return fold;
}

RuleVerdict
PersistencyModel::notOrdered(Cause cause, const PersistFold &a,
                             const PersistFold &b)
{
    RuleVerdict verdict;
    verdict.holds = false;
    verdict.cause = cause;
    verdict.evidence.rangeA = a.worst;
    verdict.evidence.epochA = a.epoch;
    verdict.evidence.rangeB = b.worst;
    verdict.evidence.epochB = b.epoch;
    return verdict;
}

RuleVerdict
PersistencyModel::checkOrderedBefore(const AddrRange &a,
                                     const AddrRange &b,
                                     const ShadowMemory &shadow) const
{
    // All persist intervals of A must be guaranteed complete before
    // any persist interval of B may begin:
    //   max(end of A's intervals) <= min(begin of B's intervals).
    // Overlapping intervals fail this, as does A persisting entirely
    // after B. Ranges with no writes pass vacuously.
    const PersistFold a_end = foldPersist(a, shadow, &Interval::end, true);
    if (!a_end.any)
        return {};
    const PersistFold b_begin =
        foldPersist(b, shadow, &Interval::begin, false);
    if (!b_begin.any || a_end.epoch <= b_begin.epoch)
        return {};
    return notOrdered(Cause::PersistNotBefore, a_end, b_begin);
}

FixHint
PersistencyModel::durabilityHint(const AddrRange &range,
                                 const ShadowMemory &shadow,
                                 size_t op_index) const
{
    FixHint hint;
    const AddrRange span = shadow.unflushedSpan(range);
    if (span.empty()) {
        // Every pending byte has a writeback in flight: the missing
        // piece is only the completing fence.
        hint.action = FixAction::InsertFence;
    } else {
        hint.action = FixAction::InsertFlushFence;
        hint.addr = span.addr;
        hint.size = span.size;
    }
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = repairFenceOp();
    return hint;
}

FixHint
PersistencyModel::orderingHint(const AddrRange &a, const AddrRange &b,
                               const ShadowMemory &shadow,
                               size_t op_index) const
{
    (void)shadow;
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = a.addr;
    hint.size = a.size;
    hint.addrB = b.addr;
    hint.sizeB = b.size;
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = repairFenceOp();
    // Strict ordering requires A durable before B's write, not just
    // separated from it; the patcher materializes (or relocates) the
    // writeback of A as needed.
    hint.withFlush = true;
    return hint;
}

void
PersistencyModel::reportMalformed(const PmOp &op, Report &report,
                                  size_t op_index, Cause cause)
{
    Finding f;
    f.severity = Severity::Fail;
    f.kind = FindingKind::Malformed;
    f.cause = cause;
    f.op = op.type;
    f.loc = op.loc;
    f.opIndex = op_index;
    report.add(f);
}

std::unique_ptr<PersistencyModel>
makeModel(ModelKind kind)
{
    switch (kind) {
      case ModelKind::X86:
        return std::make_unique<X86Model>();
      case ModelKind::Hops:
        return std::make_unique<HopsModel>();
      case ModelKind::Arm:
        return std::make_unique<ArmModel>();
    }
    return nullptr;
}

} // namespace pmtest::core
