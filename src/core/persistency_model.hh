/**
 * @file
 * The persistency-model interface: the set of *checking rules* (paper
 * §4.4, §5.2) that define how hardware PM operations update the shadow
 * memory and how the two low-level checkers are validated. PMTest's
 * flexibility claim rests on this seam — supporting a new persistency
 * model means implementing this interface (compare X86Model and
 * HopsModel).
 */

#ifndef PMTEST_CORE_PERSISTENCY_MODEL_HH
#define PMTEST_CORE_PERSISTENCY_MODEL_HH

#include <memory>

#include "core/report.hh"
#include "core/shadow_memory.hh"
#include "trace/pm_op.hh"

namespace pmtest::core
{

/** Which built-in model to instantiate. */
enum class ModelKind
{
    X86,  ///< strict x86: write / clwb / sfence
    Hops, ///< HOPS: write / ofence / dfence
    Arm,  ///< ARMv8.2: write / DC CVAP / DSB
};

/**
 * What a checker rule decided, with the evidence it decided from:
 * the open range and the current epoch (isPersist), or the folded
 * persist intervals of both ranges (isOrderedBefore). A failed
 * verdict becomes a finding's cause and evidence as they are.
 */
struct RuleVerdict
{
    bool holds = true;
    Cause cause = Cause::PersistOpen; ///< meaningful when !holds
    Evidence evidence{};

    explicit operator bool() const { return holds; }
};

/** Checking rules for one persistency model. */
class PersistencyModel
{
  public:
    virtual ~PersistencyModel() = default;

    /** Model name for reports. */
    virtual const char *name() const = 0;

    /**
     * Apply one hardware PM operation to the shadow memory,
     * emitting WARN findings (performance bugs) or Malformed findings
     * (operations the model does not define) into @p report. A Write
     * must apply as shadow.recordWrite(range) and nothing else: the
     * engine batches runs of writes without calling apply().
     */
    virtual void apply(const PmOp &op, ShadowMemory &shadow,
                       Report &report, size_t op_index) = 0;

    /**
     * The isPersist rule: whether everything written in @p range is
     * guaranteed persistent at the current epoch. Identical for the
     * built-in models; kept virtual for models with different
     * durability semantics.
     */
    virtual RuleVerdict
    checkPersisted(const AddrRange &range,
                   const ShadowMemory &shadow) const;

    /**
     * The isOrderedBefore rule: whether every write in @p a is
     * guaranteed to persist before any write in @p b. Default (strict
     * models): A's persists must be guaranteed complete before B's
     * may begin. Epoch-based models (HOPS) override it.
     */
    virtual RuleVerdict
    checkOrderedBefore(const AddrRange &a, const AddrRange &b,
                       const ShadowMemory &shadow) const;

    /**
     * Whether apply() reads the shadow's written-since-dfence set
     * (ShadowMemory::completeAllWrites); the engine skips that
     * bookkeeping for models that do not.
     */
    virtual bool tracksOpenWrites() const { return false; }

    /** The writeback op this model's repairs insert. */
    virtual OpType repairFlushOp() const = 0;

    /** The completing-fence op this model's repairs insert. */
    virtual OpType repairFenceOp() const = 0;

    /**
     * Repair proposal for a failed checkPersisted over @p range at
     * the checker op @p op_index. Default (strict models): a fence
     * alone when every pending byte already has a writeback in
     * flight, otherwise writeback + fence over the unflushed span —
     * inserted immediately before the checker.
     */
    virtual FixHint durabilityHint(const AddrRange &range,
                                   const ShadowMemory &shadow,
                                   size_t op_index) const;

    /**
     * Repair proposal for a failed checkOrderedBefore(@p a, @p b) at
     * the checker op @p op_index. Default (strict models): make A
     * durable before B's first write — writeback of A plus a fence,
     * placed by the patcher in front of that write (withFlush lets
     * the patcher skip/retire writebacks as needed). Epoch-based
     * models (HOPS) override with a fence-only repair.
     */
    virtual FixHint orderingHint(const AddrRange &a, const AddrRange &b,
                                 const ShadowMemory &shadow,
                                 size_t op_index) const;

  protected:
    /** One side of an ordering check, folded over its persists. */
    struct PersistFold
    {
        bool any = false;  ///< the range holds a persist interval
        Epoch epoch = 0;   ///< the folded bound
        AddrRange worst;   ///< the (clipped) entry that set it
    };

    /**
     * Fold the persist intervals over @p range to the largest
     * (@p latest) or smallest @p bound (Interval::begin or ::end);
     * ties go to the later entry in address order.
     */
    static PersistFold foldPersist(const AddrRange &range,
                                   const ShadowMemory &shadow,
                                   Epoch Interval::*bound, bool latest);

    /**
     * A failed ordering verdict: A's fold (range A, epoch A) against
     * B's (range B, epoch B).
     */
    static RuleVerdict notOrdered(Cause cause, const PersistFold &a,
                                  const PersistFold &b);

    /**
     * Helper for apply(): record a Malformed finding for an op the
     * model does not define (@p cause names the model).
     */
    static void reportMalformed(const PmOp &op, Report &report,
                                size_t op_index, Cause cause);
};

/** Instantiate a built-in model. */
std::unique_ptr<PersistencyModel> makeModel(ModelKind kind);

} // namespace pmtest::core

#endif // PMTEST_CORE_PERSISTENCY_MODEL_HH
