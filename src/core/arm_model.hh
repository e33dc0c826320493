/**
 * @file
 * The ARMv8.2 persistency model (paper §2.1: "ARM implements the
 * DC CVAP instruction that writes back data to the persistence").
 * Structurally the strict model of x86 with different primitives:
 * `DC CVAP` cleans a range to the point of persistence (like clwb),
 * and `DSB` orders and completes outstanding cleans (like sfence).
 * Added as the third built-in model to exercise the §5.2 extension
 * seam beyond the two models the paper ships.
 */

#ifndef PMTEST_CORE_ARM_MODEL_HH
#define PMTEST_CORE_ARM_MODEL_HH

#include "core/persistency_model.hh"

namespace pmtest::core
{

/** Checking rules for the ARMv8.2 persistency model. */
class ArmModel final : public PersistencyModel
{
  public:
    const char *name() const override { return "arm"; }

    void
    apply(const PmOp &op, ShadowMemory &shadow, Report &report,
          size_t op_index) override
    {
        switch (op.type) {
          case OpType::Write:
            shadow.recordWrite(AddrRange(op.addr, op.size));
            break;

          case OpType::DcCvap: {
            // Clean-to-persistence: same interval semantics as clwb,
            // including the performance-bug WARN rules.
            const ClwbScan scan =
                shadow.recordClwb(AddrRange(op.addr, op.size));
            if (scan.any())
                reportCvapWarns(scan, op, report, op_index);
            break;
          }

          case OpType::Dsb:
            shadow.bumpTimestamp();
            shadow.completePendingFlushes();
            break;

          case OpType::Clwb:
          case OpType::ClflushOpt:
          case OpType::Clflush:
          case OpType::Sfence:
          case OpType::Ofence:
          case OpType::Dfence:
            reportMalformed(op, report, op_index, Cause::OpNotInArm);
            break;

          default:
            // Transactional events and checkers are handled by the
            // engine.
            break;
        }
    }

    OpType repairFlushOp() const override { return OpType::DcCvap; }
    OpType repairFenceOp() const override { return OpType::Dsb; }

  private:
    /** Emit the DC CVAP performance WARNs (cold path; out of line). */
    static void reportCvapWarns(const ClwbScan &scan, const PmOp &op,
                                Report &report, size_t op_index);
};

} // namespace pmtest::core

#endif // PMTEST_CORE_ARM_MODEL_HH
