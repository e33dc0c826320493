#include "baseline/pmemcheck.hh"

#include <atomic>

#include "core/interval.hh"

namespace pmtest::baseline
{

namespace
{
std::atomic<bool> g_dbi_active{false};
} // namespace

void
setDbiActive(bool active)
{
    g_dbi_active.store(active, std::memory_order_relaxed);
}

bool
dbiActive()
{
    return g_dbi_active.load(std::memory_order_relaxed);
}

using core::Finding;
using core::FindingKind;
using core::Severity;

void
Pmemcheck::onTrace(const Trace &trace)
{
    const auto &ops = trace.ops();
    for (size_t i = 0; i < ops.size(); i++) {
        handleOp(ops[i], i, trace.id());
        opsProcessed_++;
    }
}

void
Pmemcheck::handleOp(const PmOp &op, size_t index, uint64_t trace_id)
{
    switch (op.type) {
      case OpType::Write:
        // Word-granular tracking: one shadow entry per stored word,
        // as a binary-instrumentation tool sees the store stream.
        for (uint64_t w = firstWord(op.addr);
             w <= lastWord(op.addr, op.size); w++) {
            ByteInfo &info = shadow_[w];
            info.state = ByteState::Dirty;
            info.storeLoc = op.loc;
        }
        break;

      case OpType::Clwb:
      case OpType::ClflushOpt:
      case OpType::Clflush: {
        bool any_dirty = false;
        bool any_reflush = false;
        for (uint64_t w = firstWord(op.addr);
             w <= lastWord(op.addr, op.size); w++) {
            auto it = shadow_.find(w);
            if (it == shadow_.end())
                continue;
            if (it->second.state == ByteState::Dirty) {
                it->second.state = ByteState::Flushing;
                flushing_.push_back(w);
                any_dirty = true;
            } else {
                any_reflush = true;
            }
        }
        if (!any_dirty) {
            Finding f;
            f.severity = Severity::Warn;
            f.kind = any_reflush ? FindingKind::RedundantFlush
                                 : FindingKind::UnnecessaryFlush;
            f.cause = any_reflush ? core::Cause::PmemcheckReflush
                                  : core::Cause::PmemcheckCleanFlush;
            f.loc = op.loc;
            f.traceId = trace_id;
            f.opIndex = index;
            report_.add(std::move(f));
        }
        break;
      }

      case OpType::Sfence:
        // Promote only the bytes with an in-flight flush; a store
        // after the flush re-dirtied its byte and stays Dirty.
        for (uint64_t a : flushing_) {
            auto it = shadow_.find(a);
            if (it != shadow_.end() &&
                it->second.state == ByteState::Flushing) {
                it->second.state = ByteState::Clean;
            }
        }
        flushing_.clear();
        break;

      case OpType::CheckIsPersist: {
        // Honour the generic checker so capability comparisons can
        // run the same annotated binary under both tools.
        for (uint64_t w = firstWord(op.addr);
             w <= lastWord(op.addr, op.size); w++) {
            auto it = shadow_.find(w);
            if (it != shadow_.end() &&
                it->second.state != ByteState::Clean) {
                Finding f;
                f.severity = Severity::Fail;
                f.kind = FindingKind::NotPersisted;
                f.cause = core::Cause::PmemcheckStore;
                f.loc = op.loc;
                f.traceId = trace_id;
                f.opIndex = index;
                report_.add(std::move(f));
                break;
            }
        }
        break;
      }

      default:
        // Transactions, HOPS fences and the ordering checker are not
        // supported — pmemcheck is PMDK/x86-specific (Table 1).
        break;
    }
}

core::Report
Pmemcheck::finish()
{
    for (const auto &[addr, info] : shadow_) {
        if (info.state == ByteState::Clean)
            continue;
        Finding f;
        f.severity = Severity::Fail;
        f.kind = FindingKind::NotPersisted;
        f.cause = core::Cause::PmemcheckStoreAtExit;
        f.evidence.rangeA = core::AddrRange(addr << 3, 8);
        f.loc = info.storeLoc;
        report_.add(std::move(f));
        // One finding per store site is enough; pmemcheck aggregates.
        break;
    }
    return report_;
}

} // namespace pmtest::baseline
