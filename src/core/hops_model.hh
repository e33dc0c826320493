/**
 * @file
 * The HOPS persistency model (paper §5.2): the lightweight ofence
 * orders writes without forcing them to PM; the heavier dfence both
 * orders and persists. There are no flush intervals — HOPS hardware
 * tracks writebacks itself.
 */

#ifndef PMTEST_CORE_HOPS_MODEL_HH
#define PMTEST_CORE_HOPS_MODEL_HH

#include "core/persistency_model.hh"

namespace pmtest::core
{

/** Checking rules for the HOPS relaxed persistency model. */
class HopsModel final : public PersistencyModel
{
  public:
    const char *name() const override { return "hops"; }

    void
    apply(const PmOp &op, ShadowMemory &shadow, Report &report,
          size_t op_index) override
    {
        switch (op.type) {
          case OpType::Write:
            shadow.recordWrite(AddrRange(op.addr, op.size));
            break;

          case OpType::Ofence:
            // Orders persists without enforcing durability: writes
            // before and after the ofence get distinct interval
            // begins.
            shadow.bumpTimestamp();
            break;

          case OpType::Dfence:
            // Orders and persists: everything written so far is
            // durable once the dfence completes.
            shadow.bumpTimestamp();
            shadow.completeAllWrites();
            break;

          case OpType::Clwb:
          case OpType::ClflushOpt:
          case OpType::Clflush:
          case OpType::Sfence:
          case OpType::DcCvap:
          case OpType::Dsb:
            // HOPS replaces explicit writebacks and fences entirely.
            reportMalformed(op, report, op_index, Cause::OpNotInHops);
            break;

          default:
            // Transactional events and checkers are handled by the
            // engine.
            break;
        }
    }

    RuleVerdict checkOrderedBefore(const AddrRange &a,
                                   const AddrRange &b,
                                   const ShadowMemory &shadow)
        const override;

    /** The dfence completes every write since the last one. */
    bool tracksOpenWrites() const override { return true; }

    // HOPS has no explicit writeback; the dfence stands in wherever a
    // generic repair would insert one (never reached — both hint
    // synthesizers are overridden below).
    OpType repairFlushOp() const override { return OpType::Dfence; }
    OpType repairFenceOp() const override { return OpType::Dfence; }

    /** Durability repair: a dfence in front of the checker. */
    FixHint durabilityHint(const AddrRange &range,
                           const ShadowMemory &shadow,
                           size_t op_index) const override;

    /** Ordering repair: an ofence in front of B's first write. */
    FixHint orderingHint(const AddrRange &a, const AddrRange &b,
                         const ShadowMemory &shadow,
                         size_t op_index) const override;
};

} // namespace pmtest::core

#endif // PMTEST_CORE_HOPS_MODEL_HH
