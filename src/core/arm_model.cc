#include "core/arm_model.hh"

namespace pmtest::core
{

void
ArmModel::reportCvapWarns(const ClwbScan &scan, const PmOp &op,
                          Report &report, size_t op_index)
{
    Finding f;
    f.severity = Severity::Warn;
    f.loc = op.loc;
    f.opIndex = op_index;
    f.evidence.rangeA = AddrRange(op.addr, op.size);
    // Same repair as the x86 clwb WARNs: drop the clean.
    f.hint.action = FixAction::DeleteFlush;
    f.hint.addr = op.addr;
    f.hint.size = op.size;
    f.hint.opIndex = op_index;
    f.hint.flushOp = op.type;
    if (scan.redundant) {
        f.kind = FindingKind::RedundantFlush;
        f.cause = Cause::CvapRedundant;
    } else {
        f.kind = FindingKind::UnnecessaryFlush;
        f.cause = scan.unmodified ? Cause::CvapUnmodified
                                  : Cause::CvapClean;
    }
    report.add(f);
}

} // namespace pmtest::core
