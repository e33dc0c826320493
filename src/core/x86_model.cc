#include "core/x86_model.hh"

namespace pmtest::core
{

void
X86Model::reportClwbWarns(const ClwbScan &scan, const PmOp &op,
                          Report &report, size_t op_index)
{
    Finding f;
    f.severity = Severity::Warn;
    f.loc = op.loc;
    f.opIndex = op_index;
    f.evidence.rangeA = AddrRange(op.addr, op.size);
    // Every clwb performance bug has the same mechanical repair:
    // drop the writeback.
    f.hint.action = FixAction::DeleteFlush;
    f.hint.addr = op.addr;
    f.hint.size = op.size;
    f.hint.opIndex = op_index;
    f.hint.flushOp = op.type;
    if (scan.redundant) {
        f.kind = FindingKind::RedundantFlush;
        f.cause = Cause::WritebackRedundant;
    } else {
        f.kind = FindingKind::UnnecessaryFlush;
        f.cause = scan.unmodified ? Cause::WritebackUnmodified
                                  : Cause::WritebackClean;
    }
    report.add(f);
}

} // namespace pmtest::core
