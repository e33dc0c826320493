#include "core/fix_verify.hh"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/engine.hh"
#include "obs/telemetry.hh"
#include "util/json.hh"

namespace pmtest::core
{

namespace
{

/**
 * Identity of a finding for before/after comparison. Deliberately
 * excludes the cause and evidence (epoch numbers and intervals
 * legitimately shift once ops are inserted) and the opIndex (it
 * shifts by construction); a finding "disappears" when no finding
 * with the same severity, kind and source site remains. The site's
 * file is a view into the trace's string arena (or a static string),
 * which outlives every count built from it, so keying allocates
 * nothing per finding.
 */
using FindingKey = std::tuple<int, int, std::string_view, uint32_t>;

FindingKey
keyOf(const Finding &f)
{
    return {static_cast<int>(f.severity), static_cast<int>(f.kind),
            f.loc.valid() ? f.loc.file : "", f.loc.line};
}

using KeyCounts = std::map<FindingKey, size_t>;

KeyCounts
countFindings(const Report &report)
{
    KeyCounts counts;
    for (const Finding &f : report.findings())
        counts[keyOf(f)]++;
    return counts;
}

/**
 * Whether the patched replay proves the hint: strictly fewer findings
 * at the fixed site, and nowhere a finding the baseline did not
 * already have.
 */
bool
replayAccepts(const KeyCounts &baseline, const KeyCounts &patched,
              const FindingKey &fixed)
{
    const auto base_it = baseline.find(fixed);
    const size_t base_fixed =
        base_it == baseline.end() ? 0 : base_it->second;
    const auto patched_it = patched.find(fixed);
    const size_t patched_fixed =
        patched_it == patched.end() ? 0 : patched_it->second;
    if (patched_fixed >= base_fixed)
        return false;
    for (const auto &[key, count] : patched) {
        if (key == fixed)
            continue;
        const auto it = baseline.find(key);
        if (it == baseline.end() || count > it->second)
            return false;
    }
    return true;
}

} // namespace

HintVerifyStats
verifyHints(Report &report, const std::vector<Trace> &traces,
            ModelKind kind)
{
    HintVerifyStats stats;

    using TraceKey = std::pair<uint32_t, uint64_t>; // (fileId, traceId)
    std::map<TraceKey, const Trace *> byIdentity;
    for (const Trace &t : traces)
        byIdentity[{t.fileId(), t.id()}] = &t;

    // One engine for baselines and replays; baselines computed lazily
    // and cached so a trace with many hinted findings rechecks once.
    Engine engine(kind);
    std::map<TraceKey, KeyCounts> baselines;

    for (Finding &f : report.mutableFindings()) {
        if (!f.hint.valid())
            continue;
        stats.candidates++;
        const TraceKey tkey{f.fileId, f.traceId};
        const auto trace_it = byIdentity.find(tkey);
        if (trace_it == byIdentity.end()) {
            stats.missingTrace++;
            continue;
        }
        const Trace &trace = *trace_it->second;

        auto base_it = baselines.find(tkey);
        if (base_it == baselines.end()) {
            base_it = baselines
                          .emplace(tkey,
                                   countFindings(engine.check(trace)))
                          .first;
        }

        const Trace patched = applyFixHint(trace, f.hint);
        KeyCounts after;
        {
            obs::SpanScope span(obs::Stage::HintReplay);
            after = countFindings(engine.check(patched));
        }

        if (replayAccepts(base_it->second, after, keyOf(f))) {
            f.hint.verified = true;
            stats.verified++;
            obs::count(obs::Counter::HintsVerified);
        } else {
            stats.rejected++;
        }
    }
    return stats;
}

HintVerifyStats
verifyHints(Report &report, TraceSource &source, ModelKind kind,
            SourceError *error)
{
    std::vector<Trace> traces;
    for (;;) {
        const auto pull = source.pull(64, &traces, error);
        if (pull == TraceSource::Pull::End)
            break;
        if (pull == TraceSource::Pull::Error) {
            // Verify what we have; findings from the failed remainder
            // simply count as missingTrace.
            break;
        }
    }
    return verifyHints(report, traces, kind);
}

void
writeFixHintsJson(JsonWriter &w, const Report &report,
                  const HintVerifyStats &stats, ModelKind kind)
{
    w.beginObject();
    w.member("format", "pmtest-fixhints-v1");
    w.member("model", makeModel(kind)->name());

    w.key("stats").beginObject();
    w.member("candidates", static_cast<uint64_t>(stats.candidates));
    w.member("verified", static_cast<uint64_t>(stats.verified));
    w.member("rejected", static_cast<uint64_t>(stats.rejected));
    w.member("missing_trace",
             static_cast<uint64_t>(stats.missingTrace));
    w.endObject();

    w.key("hints").beginArray();
    for (const Finding &f : report.findings()) {
        if (!f.hint.valid())
            continue;
        w.beginObject();
        w.member("file_id", static_cast<uint64_t>(f.fileId));
        w.member("trace_id", f.traceId);
        w.member("op_index", static_cast<uint64_t>(f.opIndex));
        w.member("severity",
                 f.severity == Severity::Fail ? "fail" : "warn");
        w.member("kind", findingKindName(f.kind));
        w.member("loc", f.loc.str());
        w.member("message", findingMessage(f));
        w.member("action", fixActionName(f.hint.action));
        w.member("insert_at", f.hint.opIndex);
        if (f.hint.size > 0) {
            w.member("addr", f.hint.addr);
            w.member("size", f.hint.size);
        }
        if (f.hint.action == FixAction::InsertOrdering) {
            w.member("addr_b", f.hint.addrB);
            w.member("size_b", f.hint.sizeB);
            w.member("with_flush", f.hint.withFlush);
        }
        if (f.hint.action == FixAction::InsertTxEnd)
            w.member("count", static_cast<uint64_t>(f.hint.count));
        w.member("flush_op", opTypeName(f.hint.flushOp));
        w.member("fence_op", opTypeName(f.hint.fenceOp));
        w.member("verified", f.hint.verified);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace pmtest::core
