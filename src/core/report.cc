#include "core/report.hh"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <map>
#include <string_view>
#include <tuple>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace pmtest::core
{

const char *
findingKindName(FindingKind kind)
{
    // No default and no fallthrough return: -Wswitch makes the
    // compiler reject any FindingKind this switch does not name, so a
    // new kind can never render as "?".
    switch (kind) {
      case FindingKind::NotPersisted: return "not-persisted";
      case FindingKind::NotOrdered: return "not-ordered";
      case FindingKind::MissingLog: return "missing-log";
      case FindingKind::IncompleteTx: return "incomplete-tx";
      case FindingKind::UnmatchedTx: return "unmatched-tx";
      case FindingKind::RedundantFlush: return "redundant-flush";
      case FindingKind::UnnecessaryFlush: return "unnecessary-flush";
      case FindingKind::DuplicateLog: return "duplicate-log";
      case FindingKind::Malformed: return "malformed-trace";
    }
    panic("unknown FindingKind");
}

namespace
{

struct CauseInfo
{
    const char *name;
    FindingKind kind;
};

CauseInfo
causeInfo(Cause cause)
{
    // Exhaustive like findingKindName: -Wswitch rejects a Cause this
    // switch does not name.
    using K = FindingKind;
    switch (cause) {
      case Cause::PersistOpen: return {"persist-open", K::NotPersisted};
      case Cause::PmemcheckStore:
        return {"pmemcheck-store", K::NotPersisted};
      case Cause::PmemcheckStoreAtExit:
        return {"pmemcheck-store-at-exit", K::NotPersisted};
      case Cause::PersistNotBefore:
        return {"persist-not-before", K::NotOrdered};
      case Cause::WriteNotFenced:
        return {"write-not-fenced", K::NotOrdered};
      case Cause::WriteWithoutLog:
        return {"write-without-log", K::MissingLog};
      case Cause::TxUpdateNotPersisted:
        return {"tx-update-not-persisted", K::IncompleteTx};
      case Cause::TxOpenAtTraceEnd:
        return {"tx-open-at-trace-end", K::UnmatchedTx};
      case Cause::TxOpenAtCheckerEnd:
        return {"tx-open-at-checker-end", K::UnmatchedTx};
      case Cause::WritebackRedundant:
        return {"writeback-redundant", K::RedundantFlush};
      case Cause::CvapRedundant:
        return {"cvap-redundant", K::RedundantFlush};
      case Cause::PmemcheckReflush:
        return {"pmemcheck-reflush", K::RedundantFlush};
      case Cause::WritebackUnmodified:
        return {"writeback-unmodified", K::UnnecessaryFlush};
      case Cause::WritebackClean:
        return {"writeback-clean", K::UnnecessaryFlush};
      case Cause::CvapUnmodified:
        return {"cvap-unmodified", K::UnnecessaryFlush};
      case Cause::CvapClean: return {"cvap-clean", K::UnnecessaryFlush};
      case Cause::PmemcheckCleanFlush:
        return {"pmemcheck-clean-flush", K::UnnecessaryFlush};
      case Cause::LogDuplicate: return {"log-duplicate", K::DuplicateLog};
      case Cause::TxEndWithoutBegin:
        return {"tx-end-without-begin", K::Malformed};
      case Cause::TxAddOutsideTx:
        return {"tx-add-outside-tx", K::Malformed};
      case Cause::TxCheckerEndWithoutStart:
        return {"tx-checker-end-without-start", K::Malformed};
      case Cause::OpNotInX86: return {"op-not-in-x86", K::Malformed};
      case Cause::OpNotInHops: return {"op-not-in-hops", K::Malformed};
      case Cause::OpNotInArm: return {"op-not-in-arm", K::Malformed};
      case Cause::TxCheckerOpenAtTraceEnd:
        return {"tx-checker-open-at-trace-end", K::Malformed};
      case Cause::TxCheckerNestedStart:
        return {"tx-checker-nested-start", K::Malformed};
    }
    panic("unknown Cause");
}

/**
 * Appends message pieces straight into one output buffer, so a
 * rendered report costs no temporary string per piece or finding.
 */
class Text
{
  public:
    explicit Text(std::string &out) : out_(out) {}

    Text &
    operator<<(std::string_view s)
    {
        out_ += s;
        return *this;
    }

    Text &
    operator<<(uint64_t v)
    {
        char buf[20];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

    Text &
    operator<<(const AddrRange &r)
    {
        r.appendTo(out_);
        return *this;
    }

    Text &
    operator<<(const SourceLocation &loc)
    {
        loc.appendTo(out_);
        return *this;
    }

  private:
    std::string &out_;
};

/** The renderer: @p f's message, appended to @p out. */
void
appendMessage(std::string &out, const Finding &f)
{
    const Evidence &e = f.evidence;
    Text t(out);
    const auto persist_open = [&] {
        t << "data in " << e.rangeA
          << " may not have persisted (persist interval still open at "
             "epoch "
          << e.epochA << ")";
    };
    const auto undefined_op = [&](const char *model_name) {
        t << opTypeName(f.op) << " is not defined by the " << model_name
          << " persistency model";
    };
    switch (f.cause) {
      case Cause::PersistOpen:
        persist_open();
        return;
      case Cause::PmemcheckStore:
        t << "store not made persistent";
        return;
      case Cause::PmemcheckStoreAtExit:
        t << "store not made persistent at exit (word at " << e.rangeA
          << ")";
        return;
      case Cause::PersistNotBefore:
        t << "persist interval of " << e.rangeA << " (ends ";
        if (e.epochA == kInfEpoch)
            t << "never";
        else
            t << e.epochA;
        t << ") is not guaranteed before that of " << e.rangeB
          << " (may begin at epoch " << e.epochB << ")";
        return;
      case Cause::WriteNotFenced:
        t << "write to " << e.rangeA << " (epoch " << e.epochA
          << ") is not separated by a fence from write to " << e.rangeB
          << " (epoch " << e.epochB << ")";
        return;
      case Cause::WriteWithoutLog:
        t << "write to " << e.rangeA
          << " inside a transaction without a log backup (missing "
             "TX_ADD)";
        return;
      case Cause::TxUpdateNotPersisted:
        t << "update not persisted when the transaction ended: ";
        persist_open();
        t << " (write at " << e.writeLoc << ")";
        return;
      case Cause::TxOpenAtTraceEnd:
        t << "trace ends with " << e.epochA
          << " unterminated transaction(s)";
        return;
      case Cause::TxOpenAtCheckerEnd:
        t << "transaction still open at TX_CHECKER_END";
        return;
      case Cause::WritebackRedundant:
        t << "writeback of " << e.rangeA
          << " duplicates an earlier writeback that has not been "
             "fenced yet";
        return;
      case Cause::CvapRedundant:
        t << "DC CVAP of " << e.rangeA
          << " duplicates an earlier clean that has not been "
             "synchronized yet";
        return;
      case Cause::PmemcheckReflush:
      case Cause::PmemcheckCleanFlush:
        t << "flush of range with no dirty stores";
        return;
      case Cause::WritebackUnmodified:
        t << "writeback of " << e.rangeA
          << " targets data never modified in this trace";
        return;
      case Cause::WritebackClean:
        t << "writeback of " << e.rangeA
          << " targets data that is already persistent";
        return;
      case Cause::CvapUnmodified:
        t << "DC CVAP of " << e.rangeA
          << " targets data never modified in this trace";
        return;
      case Cause::CvapClean:
        t << "DC CVAP of " << e.rangeA
          << " targets data that is already persistent";
        return;
      case Cause::LogDuplicate:
        t << "object " << e.rangeA
          << " is already in the undo log of this transaction";
        return;
      case Cause::TxEndWithoutBegin:
        t << "TX_END without a matching TX_BEGIN";
        return;
      case Cause::TxAddOutsideTx:
        t << "TX_ADD of " << e.rangeA << " outside any transaction";
        return;
      case Cause::TxCheckerEndWithoutStart:
        t << "TX_CHECKER_END without TX_CHECKER_START";
        return;
      case Cause::OpNotInX86:
        undefined_op("x86");
        return;
      case Cause::OpNotInHops:
        undefined_op("hops");
        return;
      case Cause::OpNotInArm:
        undefined_op("arm");
        return;
      case Cause::TxCheckerOpenAtTraceEnd:
        t << "trace ends inside a TX_CHECKER region";
        return;
      case Cause::TxCheckerNestedStart:
        t << "TX_CHECKER_START inside an open TX_CHECKER region";
        return;
    }
    panic("unknown Cause");
}

/** "FAIL(kind) message @ file:line [fN:tM:opK]", appended to @p out. */
void
appendFinding(std::string &out, const Finding &f)
{
    Text t(out);
    t << (f.severity == Severity::Fail ? "FAIL" : "WARN") << "("
      << findingKindName(f.kind) << ") ";
    appendMessage(out, f);
    // The (fileId, traceId, opIndex) identity: without it, findings
    // from multi-file or sharded runs cannot be attributed to an
    // input trace.
    t << " @ " << f.loc << " [f" << uint64_t{f.fileId} << ":t"
      << f.traceId << ":op" << uint64_t{f.opIndex} << "]";
}

} // namespace

const char *
causeName(Cause cause)
{
    return causeInfo(cause).name;
}

FindingKind
causeKind(Cause cause)
{
    return causeInfo(cause).kind;
}

std::string
findingMessage(const Finding &f)
{
    std::string out;
    appendMessage(out, f);
    return out;
}

std::string
Finding::str() const
{
    std::string out;
    appendFinding(out, *this);
    return out;
}

void
Report::add(Finding finding)
{
    if (finding.hint.valid())
        obs::count(obs::Counter::HintsSynthesized);
    findings_.push_back(std::move(finding));
}

size_t
Report::failCount() const
{
    size_t n = 0;
    for (const auto &f : findings_)
        if (f.severity == Severity::Fail)
            n++;
    return n;
}

size_t
Report::warnCount() const
{
    size_t n = 0;
    for (const auto &f : findings_)
        if (f.severity == Severity::Warn)
            n++;
    return n;
}

void
Report::merge(const Report &other)
{
    findings_.insert(findings_.end(), other.findings().begin(),
                     other.findings().end());
    for (const auto &arena : other.arenas_)
        holdArena(arena);
}

void
Report::merge(Report &&other)
{
    if (findings_.capacity() < other.findings_.size() &&
        findings_.empty()) {
        findings_ = std::move(other.findings_);
    } else {
        findings_.insert(findings_.end(),
                         std::make_move_iterator(other.findings_.begin()),
                         std::make_move_iterator(other.findings_.end()));
    }
    for (auto &arena : other.arenas_)
        holdArena(std::move(arena));
    other.findings_.clear();
    other.arenas_.clear();
}

void
Report::stampIdentity()
{
    for (auto &f : findings_) {
        f.traceId = traceId_;
        f.fileId = fileId_;
    }
}

void
Report::holdArena(Arena arena)
{
    if (!arena)
        return;
    // Consecutive findings usually come from the same trace; skipping
    // the immediate duplicate keeps the common case O(1) without a
    // set. Occasional repeats are harmless (shared_ptr copies).
    if (!arenas_.empty() && arenas_.back() == arena)
        return;
    arenas_.push_back(std::move(arena));
}

void
Report::canonicalize()
{
    obs::SpanScope span(obs::Stage::ReportCanonicalize);
    const auto before = [](const Finding &a, const Finding &b) {
        return std::tie(a.fileId, a.traceId, a.opIndex) <
               std::tie(b.fileId, b.traceId, b.opIndex);
    };
    if (std::is_sorted(findings_.begin(), findings_.end(), before))
        return;
    // Sorting 144-byte findings moves each one many times; sorting
    // 32-byte keys and moving each finding once is several times
    // cheaper. The position tiebreak makes std::sort reproduce the
    // stable order exactly.
    struct Key
    {
        uint32_t fileId;
        uint64_t traceId;
        size_t opIndex;
        size_t pos;

        bool
        operator<(const Key &o) const
        {
            return std::tie(fileId, traceId, opIndex, pos) <
                   std::tie(o.fileId, o.traceId, o.opIndex, o.pos);
        }
    };
    std::vector<Key> keys;
    keys.reserve(findings_.size());
    for (size_t i = 0; i < findings_.size(); i++) {
        const Finding &f = findings_[i];
        keys.push_back({f.fileId, f.traceId, f.opIndex, i});
    }
    std::sort(keys.begin(), keys.end());

    // Apply the permutation in place, one cycle at a time: slot i
    // receives findings_[keys[i].pos]. A finished slot is marked by
    // pointing its key at itself.
    for (size_t i = 0; i < keys.size(); i++) {
        if (keys[i].pos == i)
            continue;
        Finding held = std::move(findings_[i]);
        size_t dst = i;
        for (;;) {
            const size_t src = keys[dst].pos;
            keys[dst].pos = dst;
            if (src == i) {
                findings_[dst] = std::move(held);
                break;
            }
            findings_[dst] = std::move(findings_[src]);
            dst = src;
        }
    }
}

std::string
Report::str() const
{
    std::string out = "report for trace #" + std::to_string(traceId_) +
                      ": " + std::to_string(failCount()) + " FAIL, " +
                      std::to_string(warnCount()) + " WARN\n";
    for (const auto &f : findings_) {
        out += "  ";
        appendFinding(out, f);
        out += '\n';
    }
    return out;
}

std::vector<Report::SummaryLine>
Report::summary() const
{
    // Key: (severity, kind, file, line). File names come from
    // __FILE__ literals or a trace arena; compare by content so
    // findings from reloaded traces group with live ones.
    using Key = std::tuple<int, int, std::string, uint32_t>;
    std::map<Key, SummaryLine> lines;
    for (const auto &f : findings_) {
        const Key key{static_cast<int>(f.severity),
                      static_cast<int>(f.kind),
                      f.loc.valid() ? f.loc.file : "", f.loc.line};
        auto it = lines.find(key);
        if (it == lines.end()) {
            lines.emplace(key, SummaryLine{f.severity, f.kind, f.loc,
                                           1, findingMessage(f)});
        } else {
            it->second.count++;
        }
    }

    std::vector<SummaryLine> out;
    out.reserve(lines.size());
    for (auto &[key, line] : lines)
        out.push_back(std::move(line));
    std::sort(out.begin(), out.end(),
              [](const SummaryLine &a, const SummaryLine &b) {
                  if (a.severity != b.severity)
                      return a.severity == Severity::Fail;
                  return a.count > b.count;
              });
    return out;
}

std::string
Report::summaryStr() const
{
    const auto lines = summary();
    std::string out = "summary: " + std::to_string(failCount()) +
                      " FAIL, " + std::to_string(warnCount()) +
                      " WARN across " + std::to_string(lines.size()) +
                      " distinct sites\n";
    for (const auto &line : lines) {
        out += "  ";
        out += line.severity == Severity::Fail ? "FAIL" : "WARN";
        out += "(";
        out += findingKindName(line.kind);
        out += ") x";
        out += std::to_string(line.count);
        out += " @ ";
        out += line.loc.str();
        out += " — ";
        out += line.firstMessage;
        out += '\n';
    }
    return out;
}

} // namespace pmtest::core
