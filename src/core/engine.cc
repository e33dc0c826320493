#include "core/engine.hh"

#include <algorithm>
#include <utility>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace pmtest::core
{

void
Engine::TraceState::reset()
{
    shadow.reset();
    exclusions.clear();
    txDepth = 0;
    log.clear();
    txCheckActive = false;
    txWrites.clear();
}

Engine::Engine(ModelKind kind, Dispatch dispatch)
    : dispatch_(dispatch), model_(makeModel(kind))
{
    if (!model_)
        fatal("Engine: unknown persistency model");
    state_.shadow.setTrackOpenWrites(model_->tracksOpenWrites());
}

void
Engine::begin(uint64_t trace_id, uint32_t file_id)
{
    // Per-trace, not per-op: the span (and its stage histogram) costs
    // two clock reads per *trace*, leaving the op loop untouched.
    span_.reset();
    span_.emplace(obs::Stage::EngineCheck);
    report_ = Report(trace_id, file_id);
    fed_ = 0;
    state_.reset();
}

void
Engine::feed(const PmOp *ops, size_t count)
{
    // Batched write runs are valid precisely because every model
    // applies OpType::Write as shadow.recordWrite(range) and nothing
    // else (the PersistencyModel::apply contract); Dispatch::PerOp
    // keeps the pure per-op loop as the oracle the batched path is
    // verified against (tests/core/kernel_equivalence_test.cc). A
    // run cut by the end of a window just flushes early, which the
    // recordWriteBatch contract makes indistinguishable.
    size_t i = 0;
    if (dispatch_ == Dispatch::Batched) {
        while (i < count) {
            if (ops[i].type == OpType::Write) {
                i = runWriteRun(ops, count, i, state_, report_);
                continue;
            }
            handleOp(ops[i], fed_ + i, state_, report_);
            i++;
        }
    } else {
        for (; i < count; i++)
            handleOp(ops[i], fed_ + i, state_, report_);
    }
    fed_ += count;
    opsProcessed_ += count;
}

Report
Engine::finish(const Report::Arena &arena)
{
    const uint64_t trace_id = report_.traceId();
    if (state_.txDepth > 0) {
        Finding f;
        f.severity = Severity::Fail;
        f.kind = FindingKind::UnmatchedTx;
        f.cause = Cause::TxOpenAtTraceEnd;
        f.evidence.epochA = static_cast<Epoch>(state_.txDepth);
        f.traceId = trace_id;
        f.opIndex = fed_;
        f.hint.action = FixAction::InsertTxEnd;
        f.hint.opIndex = fed_;
        f.hint.count = static_cast<uint32_t>(state_.txDepth);
        report_.add(std::move(f));
    }
    if (state_.txCheckActive) {
        // The region's writes were never checked: a TX_CHECKER_START
        // without its END must not pass silently.
        Finding f;
        f.severity = Severity::Fail;
        f.kind = FindingKind::Malformed;
        f.cause = Cause::TxCheckerOpenAtTraceEnd;
        f.traceId = trace_id;
        f.opIndex = fed_;
        report_.add(std::move(f));
    }

    obs::count(obs::Counter::TracesChecked);
    obs::count(obs::Counter::OpsChecked, fed_);
    tracesChecked_++;
    report_.stampIdentity();
    // A report with findings owns the trace's string arena from here
    // on, so its finding locations outlive the trace and any reader;
    // a clean report has no locations to keep alive.
    if (!report_.clean())
        report_.holdArena(arena);
    span_.reset();
    return std::move(report_);
}

Report
Engine::check(const Trace &trace)
{
    begin(trace.id(), trace.fileId());
    feed(trace.ops().data(), trace.size());
    return finish(trace.arena());
}

size_t
Engine::runWriteRun(const PmOp *ops, size_t count, size_t i,
                    TraceState &state, Report &report)
{
    writeBatch_.clear();
    uint64_t lo = 0, hi = 0; // bounding box of the batch
    while (i < count && ops[i].type == OpType::Write) {
        const PmOp &op = ops[i];
        const size_t index = fed_ + i;
        i++;

        const AddrRange range(op.addr, op.size);
        // Matches the per-op path: an empty or fully-excluded write
        // is skipped before any check or shadow update (covers() is
        // vacuously true on empty ranges).
        if (excluded(state, range))
            continue;
        preWriteChecks(op, range, index, state, report);

        if (!writeBatch_.empty() && range.addr < hi &&
            range.end() > lo) {
            // The bounding box overlaps; if any batched member truly
            // overlaps, application order matters — flush first.
            for (const AddrRange &b : writeBatch_) {
                if (range.addr < b.end() && range.end() > b.addr) {
                    flushWriteBatch(state);
                    break;
                }
            }
        }
        if (writeBatch_.empty()) {
            lo = range.addr;
            hi = range.end();
        } else {
            lo = std::min(lo, range.addr);
            hi = std::max(hi, range.end());
        }
        writeBatch_.push_back(range);
        if (writeBatch_.size() >= kWriteBatchMax)
            flushWriteBatch(state);
    }
    flushWriteBatch(state);
    return i;
}

void
Engine::flushWriteBatch(TraceState &state)
{
    if (writeBatch_.empty())
        return;
    if (writeBatch_.size() == 1) {
        state.shadow.recordWrite(writeBatch_[0]);
    } else {
        // Members are pairwise disjoint (overlap forces an early
        // flush above), so sorting cannot change the outcome — only
        // the cost of applying it.
        std::sort(writeBatch_.begin(), writeBatch_.end(),
                  [](const AddrRange &a, const AddrRange &b) {
                      return a.addr < b.addr;
                  });
        state.shadow.recordWriteBatch(writeBatch_.data(),
                                      writeBatch_.size());
    }
    writeBatch_.clear();
}

void
Engine::preWriteChecks(const PmOp &op, const AddrRange &range,
                       size_t index, TraceState &state, Report &report)
{
    // Transaction-aware rule (§5.1.1): inside a transaction, a
    // modified persistent object must have been backed up first.
    if (state.txDepth > 0 && !state.log.covers(range)) {
        Finding f;
        f.severity = Severity::Fail;
        f.kind = FindingKind::MissingLog;
        f.cause = Cause::WriteWithoutLog;
        f.evidence.rangeA = range;
        f.loc = op.loc;
        f.opIndex = index;
        f.hint.action = FixAction::InsertTxAdd;
        f.hint.addr = range.addr;
        f.hint.size = range.size;
        f.hint.opIndex = index;
        report.add(std::move(f));
    }
    if (state.txCheckActive)
        state.txWrites.emplace_back(range, op.loc);
}

bool
Engine::excluded(const TraceState &state, const AddrRange &range)
{
    return state.exclusions.covers(range);
}

void
Engine::handleOp(const PmOp &op, size_t index, TraceState &state,
                 Report &report)
{
    switch (op.type) {
      case OpType::Exclude:
        state.exclusions.assign(AddrRange(op.addr, op.size), true);
        return;
      case OpType::Include:
        state.exclusions.erase(AddrRange(op.addr, op.size));
        return;

      case OpType::TxBegin:
      case OpType::TxEnd:
      case OpType::TxAdd:
        handleTxEvent(op, index, state, report);
        return;

      case OpType::CheckIsPersist:
      case OpType::CheckIsOrderedBefore:
      case OpType::TxCheckStart:
      case OpType::TxCheckEnd:
        handleChecker(op, index, state, report);
        return;

      default:
        break;
    }

    // Hardware PM operation. Skip ranges removed from the testing
    // scope; fences always apply (they have no range).
    const AddrRange range(op.addr, op.size);
    const bool ranged = op.type == OpType::Write ||
                        op.type == OpType::Clwb ||
                        op.type == OpType::ClflushOpt ||
                        op.type == OpType::Clflush;
    if (ranged && excluded(state, range))
        return;

    if (op.type == OpType::Write)
        preWriteChecks(op, range, index, state, report);

    model_->apply(op, state.shadow, report, index);
}

void
Engine::handleTxEvent(const PmOp &op, size_t index, TraceState &state,
                      Report &report)
{
    switch (op.type) {
      case OpType::TxBegin:
        state.txDepth++;
        return;

      case OpType::TxEnd:
        if (state.txDepth == 0) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::Malformed;
            f.cause = Cause::TxEndWithoutBegin;
            f.loc = op.loc;
            f.opIndex = index;
            report.add(std::move(f));
            return;
        }
        state.txDepth--;
        if (state.txDepth == 0) {
            // Outermost commit: undo log entries are retired.
            state.log.clear();
        }
        return;

      case OpType::TxAdd: {
        const AddrRange range(op.addr, op.size);
        if (excluded(state, range))
            return;
        if (state.txDepth == 0) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::Malformed;
            f.cause = Cause::TxAddOutsideTx;
            f.evidence.rangeA = range;
            f.loc = op.loc;
            f.opIndex = index;
            report.add(std::move(f));
            return;
        }
        if (state.log.covers(range)) {
            // §5.1.2: logging the same object twice is a performance
            // bug — the second snapshot is pure overhead.
            Finding f;
            f.severity = Severity::Warn;
            f.kind = FindingKind::DuplicateLog;
            f.cause = Cause::LogDuplicate;
            f.evidence.rangeA = range;
            f.loc = op.loc;
            f.opIndex = index;
            f.hint.action = FixAction::DeleteTxAdd;
            f.hint.addr = range.addr;
            f.hint.size = range.size;
            f.hint.opIndex = index;
            report.add(std::move(f));
        }
        state.log.assign(range, true);
        return;
      }

      default:
        panic("handleTxEvent: unexpected op");
    }
}

void
Engine::handleChecker(const PmOp &op, size_t index, TraceState &state,
                      Report &report)
{
    const PersistencyModel &model = *model_;
    switch (op.type) {
      case OpType::CheckIsPersist: {
        const AddrRange range(op.addr, op.size);
        if (excluded(state, range))
            return;
        if (const RuleVerdict v = model.checkPersisted(range, state.shadow);
            !v) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::NotPersisted;
            f.cause = v.cause;
            f.evidence = v.evidence;
            f.loc = op.loc;
            f.opIndex = index;
            f.hint = model.durabilityHint(range, state.shadow, index);
            report.add(std::move(f));
        }
        return;
      }

      case OpType::CheckIsOrderedBefore: {
        const AddrRange a(op.addr, op.size);
        const AddrRange b(op.addrB, op.sizeB);
        if (excluded(state, a) || excluded(state, b))
            return;
        if (const RuleVerdict v =
                model.checkOrderedBefore(a, b, state.shadow);
            !v) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::NotOrdered;
            f.cause = v.cause;
            f.evidence = v.evidence;
            f.loc = op.loc;
            f.opIndex = index;
            f.hint = model.orderingHint(a, b, state.shadow, index);
            report.add(std::move(f));
        }
        return;
      }

      case OpType::TxCheckStart:
        if (state.txCheckActive) {
            // Regions do not nest: restarting would drop the open
            // region's writes unchecked. Report the misuse and keep
            // collecting into the open region.
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::Malformed;
            f.cause = Cause::TxCheckerNestedStart;
            f.loc = op.loc;
            f.opIndex = index;
            report.add(std::move(f));
            return;
        }
        state.txCheckActive = true;
        state.txWrites.clear();
        return;

      case OpType::TxCheckEnd: {
        if (!state.txCheckActive) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::Malformed;
            f.cause = Cause::TxCheckerEndWithoutStart;
            f.loc = op.loc;
            f.opIndex = index;
            report.add(std::move(f));
            return;
        }
        state.txCheckActive = false;

        if (state.txDepth > 0) {
            Finding f;
            f.severity = Severity::Fail;
            f.kind = FindingKind::UnmatchedTx;
            f.cause = Cause::TxOpenAtCheckerEnd;
            f.loc = op.loc;
            f.opIndex = index;
            f.hint.action = FixAction::InsertTxEnd;
            f.hint.opIndex = index;
            f.hint.count = static_cast<uint32_t>(state.txDepth);
            report.add(std::move(f));
        }

        // Auto-injected isPersist for every object modified inside the
        // checked region (§5.1.1, "check incomplete transactions").
        for (const auto &[range, write_loc] : state.txWrites) {
            if (excluded(state, range))
                continue;
            if (const RuleVerdict v =
                    model.checkPersisted(range, state.shadow);
                !v) {
                Finding f;
                f.severity = Severity::Fail;
                f.kind = FindingKind::IncompleteTx;
                f.cause = Cause::TxUpdateNotPersisted;
                f.evidence = v.evidence;
                f.evidence.writeLoc = write_loc;
                f.loc = op.loc;
                f.opIndex = index;
                f.hint = model.durabilityHint(range, state.shadow,
                                              index);
                report.add(std::move(f));
            }
        }
        state.txWrites.clear();
        return;
      }

      default:
        panic("handleChecker: unexpected op");
    }
}

} // namespace pmtest::core
