#include "core/hops_model.hh"

namespace pmtest::core
{

FixHint
HopsModel::durabilityHint(const AddrRange &range,
                          const ShadowMemory &shadow,
                          size_t op_index) const
{
    // HOPS hardware writes back on its own; durability only needs a
    // dfence, whatever the flush state looks like.
    (void)range;
    (void)shadow;
    FixHint hint;
    hint.action = FixAction::InsertFence;
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = OpType::Dfence;
    return hint;
}

FixHint
HopsModel::orderingHint(const AddrRange &a, const AddrRange &b,
                        const ShadowMemory &shadow,
                        size_t op_index) const
{
    // Epoch ordering is all checkOrderedBefore requires: the
    // lightweight ofence between the two writes is the whole fix —
    // no durability of A needed, so no writeback either.
    (void)shadow;
    FixHint hint;
    hint.action = FixAction::InsertOrdering;
    hint.addr = a.addr;
    hint.size = a.size;
    hint.addrB = b.addr;
    hint.sizeB = b.size;
    hint.opIndex = op_index;
    hint.flushOp = repairFlushOp();
    hint.fenceOp = OpType::Ofence;
    hint.withFlush = false;
    return hint;
}

RuleVerdict
HopsModel::checkOrderedBefore(const AddrRange &a, const AddrRange &b,
                              const ShadowMemory &shadow) const
{
    // HOPS fences already enforce persist order, so ordering holds as
    // soon as every A-interval *starts* strictly before every
    // B-interval (paper §5.2) — durability of A is not required.
    const PersistFold a_begin =
        foldPersist(a, shadow, &Interval::begin, true);
    if (!a_begin.any)
        return {};
    const PersistFold b_begin =
        foldPersist(b, shadow, &Interval::begin, false);
    if (!b_begin.any || a_begin.epoch < b_begin.epoch)
        return {};
    return notOrdered(Cause::WriteNotFenced, a_begin, b_begin);
}

} // namespace pmtest::core
