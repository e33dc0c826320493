#include "core/persistency_model.hh"

#include <memory>

#include "core/arm_model.hh"
#include "core/hops_model.hh"
#include "core/x86_model.hh"

namespace pmtest::core
{

bool
PersistencyModel::checkPersisted(const AddrRange &range,
                                 const ShadowMemory &shadow,
                                 std::string *why) const
{
    AddrRange open;
    if (shadow.allPersisted(range, &open))
        return true;
    if (why) {
        *why = "data in " + open.str() +
               " may not have persisted (persist interval still open "
               "at epoch " +
               std::to_string(shadow.timestamp()) + ")";
    }
    return false;
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

bool
PersistencyModel::checkOrderedBefore(const AddrRange &a,
                                     const AddrRange &b,
                                     const ShadowMemory &shadow,
                                     std::string *why) const
{
    // All persist intervals of A must be guaranteed complete before
    // any persist interval of B may begin:
    //   max(end of A's intervals) <= min(begin of B's intervals).
    // Overlapping intervals fail this, as does A persisting entirely
    // after B. Ranges with no writes pass vacuously.
    const PersistFold a_end = foldPersist(a, shadow, &Interval::end, true);
    if (!a_end.any)
        return true;
    const PersistFold b_begin =
        foldPersist(b, shadow, &Interval::begin, false);
    if (!b_begin.any || a_end.epoch <= b_begin.epoch)
        return true;

    if (why) {
        *why = "persist interval of " + a_end.worst.str() + " (ends " +
               (a_end.epoch == kInfEpoch
                    ? std::string("never")
                    : std::to_string(a_end.epoch)) +
               ") is not guaranteed before that of " +
               b_begin.worst.str() + " (may begin at epoch " +
               std::to_string(b_begin.epoch) + ")";
    }
    return false;
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
                                  size_t op_index, const char *model_name)
{
    Finding f;
    f.severity = Severity::Fail;
    f.kind = FindingKind::Malformed;
    f.message = std::string(opTypeName(op.type)) +
                " is not defined by the " + model_name +
                " persistency model";
    f.loc = op.loc;
    f.opIndex = op_index;
    report.add(std::move(f));
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
