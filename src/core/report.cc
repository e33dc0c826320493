#include "core/report.hh"

#include <algorithm>
#include <iterator>
#include <map>
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

std::string
Finding::str() const
{
    std::string out = severity == Severity::Fail ? "FAIL" : "WARN";
    out += "(";
    out += findingKindName(kind);
    out += ") ";
    out += message;
    out += " @ ";
    out += loc.str();
    // The (fileId, traceId, opIndex) identity: without it, findings
    // from multi-file or sharded runs cannot be attributed to an
    // input trace.
    out += " [f";
    out += std::to_string(fileId);
    out += ":t";
    out += std::to_string(traceId);
    out += ":op";
    out += std::to_string(opIndex);
    out += "]";
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
    if (findings_.empty()) {
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
    // Sorting ~136-byte findings moves each one many times; sorting
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
    // Serial runs merge in submission order: already canonical.
    if (std::is_sorted(keys.begin(), keys.end()))
        return;
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
        out += f.str();
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
                                           1, f.message});
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
