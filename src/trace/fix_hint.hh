/**
 * @file
 * Machine-readable fix hints and the trace-level patcher that applies
 * them — the repair half of the detect→repair→verify loop
 * (Hippocrates-style, but at trace granularity instead of LLVM IR).
 *
 * Every finding class the checking engine emits has a mechanical
 * repair: a missing writeback becomes an inserted flush + fence, a
 * missing ordering point becomes a fence in front of the later write,
 * a redundant writeback is deleted, a missing undo-log backup becomes
 * an inserted TX_ADD. A FixHint encodes exactly one such edit against
 * the *unpatched* trace: which action, which address range, and which
 * op index anchors the edit. The concrete op vocabulary (clwb vs
 * DC CVAP, sfence vs dfence) is chosen by the persistency model at
 * synthesis time and carried in the hint, so the patcher itself is
 * model-agnostic.
 *
 * Hints are only ever *proposals*: `core::verifyHints` replays each
 * patched trace through the same engine and accepts a hint only when
 * the original finding disappears and no new findings are introduced.
 */

#ifndef PMTEST_TRACE_FIX_HINT_HH
#define PMTEST_TRACE_FIX_HINT_HH

#include <cstdint>
#include <vector>

#include "trace/pm_op.hh"
#include "trace/trace.hh"

namespace pmtest
{

/** The mechanical repair a FixHint proposes. */
enum class FixAction : uint8_t
{
    None,             ///< no mechanical repair known for this finding
    InsertFlush,      ///< insert flushOp of [addr,size) before opIndex
    InsertFence,      ///< insert fenceOp before opIndex
    InsertFlushFence, ///< insert flushOp of [addr,size) + fenceOp
                      ///< before opIndex
    InsertOrdering,   ///< order [addr,size) before [addrB,sizeB):
                      ///< insert fenceOp — plus, when withFlush and no
                      ///< earlier writeback of the range exists,
                      ///< flushOp (retiring the writeback it replaces)
                      ///< — in front of the first write to
                      ///< [addrB,sizeB) preceding opIndex
    InsertTxAdd,      ///< insert TX_ADD of [addr,size) before opIndex
    InsertTxEnd,      ///< insert `count` TX_END ops before opIndex
    DeleteFlush,      ///< delete the writeback op at opIndex
    DeleteTxAdd,      ///< delete the TX_ADD op at opIndex
};

/** Stable machine-readable name of @p action ("insert-flush", ...). */
const char *fixActionName(FixAction action);

/**
 * One proposed trace edit. Trivially copyable (findings carry hints
 * by value). All op indices refer to the *unpatched* trace; when
 * several hints are applied together, applyFixHints resolves every
 * edit against the original index space first.
 */
struct FixHint
{
    // Wide fields first, then the one-byte ones packed together: a
    // Finding embeds a hint, and the padding this saves is where the
    // finding's evidence fits.
    uint64_t addr = 0;  ///< primary range: flush / log target
    uint64_t size = 0;
    uint64_t addrB = 0; ///< InsertOrdering: the range that must come
    uint64_t sizeB = 0; ///< second
    uint64_t opIndex = 0; ///< anchor op in the unpatched trace
    uint32_t count = 1;   ///< InsertTxEnd: transactions to close
    FixAction action = FixAction::None;
    OpType flushOp = OpType::Clwb;   ///< model's writeback op
    OpType fenceOp = OpType::Sfence; ///< model's completing fence
    bool withFlush = false; ///< InsertOrdering: [addr,size) must also
                            ///< be durable (strict models)
    bool verified = false;  ///< set by core::verifyHints on success

    /** Whether this hint proposes an edit at all. */
    bool valid() const { return action != FixAction::None; }

    /** Edit-identity equality (ignores the verified flag). */
    bool sameEdit(const FixHint &other) const;
};

/**
 * Apply one hint to @p trace, returning the patched copy. Identity
 * (id, threadId, fileId) and the string arena carry over. A hint
 * whose anchor does not match — a delete action pointing at an op of
 * the wrong type, or an opIndex past the end — patches nothing and
 * the trace is returned unchanged (verification then rejects the
 * hint, which is the honest outcome).
 */
Trace applyFixHint(const Trace &trace, const FixHint &hint);

/**
 * Apply a set of hints to @p trace in one pass. Duplicate edits
 * (several findings proposing the identical repair) collapse to one;
 * every edit is resolved against the original op indices, so hints
 * never shift one another.
 */
Trace applyFixHints(const Trace &trace, const std::vector<FixHint> &hints);

} // namespace pmtest

#endif // PMTEST_TRACE_FIX_HINT_HH
