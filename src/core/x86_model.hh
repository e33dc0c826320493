/**
 * @file
 * The x86 persistency model (paper §4.4): writes open persist
 * intervals, clwb/clflushopt/clflush open flush intervals, sfence
 * advances the epoch and closes the intervals of fenced writebacks.
 */

#ifndef PMTEST_CORE_X86_MODEL_HH
#define PMTEST_CORE_X86_MODEL_HH

#include "core/persistency_model.hh"

namespace pmtest::core
{

/** Checking rules for the strict x86 persistency model. */
class X86Model final : public PersistencyModel
{
  public:
    const char *name() const override { return "x86"; }

    void
    apply(const PmOp &op, ShadowMemory &shadow, Report &report,
          size_t op_index) override
    {
        switch (op.type) {
          case OpType::Write:
            shadow.recordWrite(AddrRange(op.addr, op.size));
            break;

          case OpType::Clwb:
          case OpType::ClflushOpt:
          case OpType::Clflush: {
            const ClwbScan scan =
                shadow.recordClwb(AddrRange(op.addr, op.size));
            if (scan.any())
                reportClwbWarns(scan, op, report, op_index);
            break;
          }

          case OpType::Sfence:
            shadow.bumpTimestamp();
            shadow.completePendingFlushes();
            break;

          case OpType::Ofence:
          case OpType::Dfence:
          case OpType::DcCvap:
          case OpType::Dsb:
            reportMalformed(op, report, op_index, Cause::OpNotInX86);
            break;

          default:
            // Transactional events and checkers are handled by the
            // engine.
            break;
        }
    }

    OpType repairFlushOp() const override { return OpType::Clwb; }
    OpType repairFenceOp() const override { return OpType::Sfence; }

  private:
    /** Emit the clwb performance WARNs derived from a pre-update scan
     *  (cold path; out of line). */
    static void reportClwbWarns(const ClwbScan &scan, const PmOp &op,
                                Report &report, size_t op_index);
};

} // namespace pmtest::core

#endif // PMTEST_CORE_X86_MODEL_HH
