#include "core/arm_model.hh"

namespace pmtest::core
{

void
ArmModel::reportCvapWarns(const ClwbScan &scan, const PmOp &op,
                          Report &report, size_t op_index)
{
    const AddrRange range(op.addr, op.size);
    Finding f;
    f.severity = Severity::Warn;
    f.loc = op.loc;
    f.opIndex = op_index;
    // Same repair as the x86 clwb WARNs: drop the clean.
    f.hint.action = FixAction::DeleteFlush;
    f.hint.addr = op.addr;
    f.hint.size = op.size;
    f.hint.opIndex = op_index;
    f.hint.flushOp = op.type;
    if (scan.redundant) {
        f.kind = FindingKind::RedundantFlush;
        f.message = "DC CVAP of " + range.str() +
                    " duplicates an earlier clean that has not "
                    "been synchronized yet";
        report.add(std::move(f));
    } else if (scan.unmodified || scan.alreadyClean) {
        f.kind = FindingKind::UnnecessaryFlush;
        f.message = "DC CVAP of " + range.str() +
                    (scan.unmodified
                         ? " targets data never modified in this "
                           "trace"
                         : " targets data that is already "
                           "persistent");
        report.add(std::move(f));
    }
}

} // namespace pmtest::core
