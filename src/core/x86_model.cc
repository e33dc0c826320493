#include "core/x86_model.hh"

namespace pmtest::core
{

void
X86Model::reportClwbWarns(const ClwbScan &scan, const PmOp &op,
                          Report &report, size_t op_index)
{
    const AddrRange range(op.addr, op.size);
    Finding f;
    f.severity = Severity::Warn;
    f.loc = op.loc;
    f.opIndex = op_index;
    // Every clwb performance bug has the same mechanical repair:
    // drop the writeback.
    f.hint.action = FixAction::DeleteFlush;
    f.hint.addr = op.addr;
    f.hint.size = op.size;
    f.hint.opIndex = op_index;
    f.hint.flushOp = op.type;
    if (scan.redundant) {
        f.kind = FindingKind::RedundantFlush;
        f.message = "writeback of " + range.str() +
                    " duplicates an earlier writeback that has not "
                    "been fenced yet";
        report.add(std::move(f));
    } else if (scan.unmodified) {
        f.kind = FindingKind::UnnecessaryFlush;
        f.message = "writeback of " + range.str() +
                    " targets data never modified in this trace";
        report.add(std::move(f));
    } else if (scan.alreadyClean) {
        f.kind = FindingKind::UnnecessaryFlush;
        f.message = "writeback of " + range.str() +
                    " targets data that is already persistent";
        report.add(std::move(f));
    }
}

} // namespace pmtest::core
