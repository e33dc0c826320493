#include "core/report.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <random>
#include <tuple>

namespace pmtest::core
{
namespace
{

/** A cause that belongs to @p kind, for hand-built findings. */
Cause
causeOf(FindingKind kind)
{
    switch (kind) {
      case FindingKind::NotPersisted: return Cause::PersistOpen;
      case FindingKind::NotOrdered: return Cause::PersistNotBefore;
      case FindingKind::MissingLog: return Cause::WriteWithoutLog;
      case FindingKind::IncompleteTx: return Cause::TxUpdateNotPersisted;
      case FindingKind::UnmatchedTx: return Cause::TxOpenAtCheckerEnd;
      case FindingKind::RedundantFlush: return Cause::WritebackRedundant;
      case FindingKind::UnnecessaryFlush: return Cause::WritebackClean;
      case FindingKind::DuplicateLog: return Cause::LogDuplicate;
      case FindingKind::Malformed: return Cause::TxAddOutsideTx;
    }
    return Cause::PersistOpen;
}

/** A finding whose rendered message carries @p tag as range A. */
Finding
finding(Severity severity, FindingKind kind, const char *file,
        uint32_t line, uint64_t tag = 0)
{
    Finding f;
    f.severity = severity;
    f.kind = kind;
    f.cause = causeOf(kind);
    f.loc = SourceLocation(file, line);
    f.evidence.rangeA = AddrRange(tag, 8);
    if (f.cause == Cause::TxUpdateNotPersisted)
        f.evidence.writeLoc = SourceLocation(file, line);
    return f;
}

TEST(ReportTest, CountsBySeverity)
{
    Report r;
    r.add(finding(Severity::Fail, FindingKind::NotPersisted, "a", 1));
    r.add(finding(Severity::Warn, FindingKind::RedundantFlush, "a", 2));
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "a", 3));
    EXPECT_EQ(r.failCount(), 2u);
    EXPECT_EQ(r.warnCount(), 1u);
    EXPECT_FALSE(r.passed());
    EXPECT_FALSE(r.clean());
}

TEST(ReportTest, WarnOnlyReportPasses)
{
    Report r;
    r.add(finding(Severity::Warn, FindingKind::DuplicateLog, "a", 1));
    EXPECT_TRUE(r.passed());
    EXPECT_FALSE(r.clean());
}

TEST(ReportTest, MergeAppends)
{
    Report a, b;
    a.add(finding(Severity::Fail, FindingKind::NotPersisted, "a", 1));
    b.add(finding(Severity::Warn, FindingKind::DuplicateLog, "b", 2));
    a.merge(b);
    EXPECT_EQ(a.findings().size(), 2u);
}

/** Finding at identity (file_id, trace_id, op_index), tagged @p tag. */
Finding
at(uint32_t file_id, uint64_t trace_id, size_t op_index, uint64_t tag)
{
    Finding f = finding(Severity::Fail, FindingKind::NotPersisted, "c.cc",
                        1, tag);
    f.fileId = file_id;
    f.traceId = trace_id;
    f.opIndex = op_index;
    return f;
}

/** Rendered messages in order: each names its finding's tag. */
std::vector<std::string>
tags(const std::vector<Finding> &findings)
{
    std::vector<std::string> out;
    for (const Finding &f : findings)
        out.push_back(findingMessage(f));
    return out;
}

/** The messages findings tagged @p tags render, in that order. */
std::vector<std::string>
tagged(std::initializer_list<uint64_t> ids)
{
    std::vector<std::string> out;
    for (const uint64_t tag : ids)
        out.push_back(findingMessage(at(0, 0, 0, tag)));
    return out;
}

/** The pre-key-sort canonical order: stable sort of whole findings. */
std::vector<Finding>
stableReference(std::vector<Finding> findings)
{
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return std::tie(a.fileId, a.traceId, a.opIndex) <
                                std::tie(b.fileId, b.traceId, b.opIndex);
                     });
    return findings;
}

TEST(ReportTest, CanonicalizeMatchesStableSortOnRandomReports)
{
    std::mt19937_64 rng(7);
    for (int round = 0; round < 200; round++) {
        // Blocks of findings, one block per checked trace, gathered in
        // a random order as parallel workers deliver them. Identities
        // come from small ranges so (fileId, traceId) repeats across
        // blocks and opIndex repeats within them: the position
        // tiebreak decides many comparisons.
        Report r;
        const size_t blocks = rng() % 12;
        size_t tag = 0;
        for (size_t b = 0; b < blocks; b++) {
            const uint32_t file_id = static_cast<uint32_t>(rng() % 3);
            const uint64_t trace_id = rng() % 4;
            const size_t n = rng() % 9;
            for (size_t i = 0; i < n; i++)
                r.add(at(file_id, trace_id, rng() % 5, tag++));
        }
        const auto want = tags(stableReference(r.findings()));
        r.canonicalize();
        ASSERT_EQ(tags(r.findings()), want) << "round " << round;
    }
}

TEST(ReportTest, CanonicalizeKeepsEqualKeysInArrivalOrder)
{
    // Two blocks with the same trace id (e.g. the same trace id in two
    // shards of one file) interleaved with another trace's block.
    Report r;
    r.add(at(0, 5, 2, 0xa));
    r.add(at(0, 5, 0, 0xb));
    r.add(at(0, 3, 1, 0xc));
    r.add(at(0, 5, 2, 0xd));
    r.add(at(0, 5, 0, 0xe));
    r.canonicalize();
    EXPECT_EQ(tags(r.findings()), tagged({0xc, 0xb, 0xe, 0xa, 0xd}));
    // Canonical input is left as it is.
    r.canonicalize();
    EXPECT_EQ(tags(r.findings()), tagged({0xc, 0xb, 0xe, 0xa, 0xd}));
}

TEST(ReportTest, MoveMergeMatchesCopyMerge)
{
    using Arena = Report::Arena;
    const Arena arena1 = std::make_shared<std::deque<std::string>>(
        std::deque<std::string>{"one.cc"});
    const Arena arena2 = std::make_shared<std::deque<std::string>>(
        std::deque<std::string>{"two.cc"});
    const auto part = [&](uint64_t trace_id, const Arena &arena) {
        Report r(trace_id);
        for (size_t op = 0; op < 3; op++)
            r.add(at(1, trace_id, op, 0x100 * trace_id + op));
        r.holdArena(arena);
        return r;
    };
    const std::vector<Report> parts{part(1, arena1), part(2, arena1),
                                    part(3, arena2)};

    Report copied, moved;
    for (const Report &p : parts)
        copied.merge(p);
    for (Report p : parts) {
        moved.merge(std::move(p));
        EXPECT_TRUE(p.clean());
        EXPECT_TRUE(p.arenas().empty());
    }
    ASSERT_EQ(moved.findings().size(), copied.findings().size());
    for (size_t i = 0; i < copied.findings().size(); i++)
        EXPECT_EQ(moved.findings()[i].str(), copied.findings()[i].str());
    EXPECT_EQ(moved.arenas(), copied.arenas());
    EXPECT_EQ(moved.arenas(), (std::vector<Arena>{arena1, arena2}));
}

TEST(ReportTest, SummaryDeduplicatesBySite)
{
    Report r;
    for (int i = 0; i < 100; i++) {
        r.add(finding(Severity::Fail, FindingKind::MissingLog,
                      "hot.cc", 42, 0x40 + 8 * i));
    }
    r.add(finding(Severity::Warn, FindingKind::RedundantFlush,
                  "cold.cc", 7));

    const auto summary = r.summary();
    ASSERT_EQ(summary.size(), 2u);
    // FAILs sort first, then by count.
    EXPECT_EQ(summary[0].kind, FindingKind::MissingLog);
    EXPECT_EQ(summary[0].count, 100u);
    EXPECT_EQ(summary[0].loc.str(), "hot.cc:42");
    // The first finding's message, rendered from its evidence.
    EXPECT_EQ(summary[0].firstMessage,
              "write to [0x40,0x48) inside a transaction without a log "
              "backup (missing TX_ADD)");
    EXPECT_EQ(summary[1].count, 1u);
}

TEST(ReportTest, SummarySeparatesDifferentLinesOfSameFile)
{
    Report r;
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "x.cc", 1));
    r.add(finding(Severity::Fail, FindingKind::NotOrdered, "x.cc", 2));
    EXPECT_EQ(r.summary().size(), 2u);
}

TEST(ReportTest, SummaryStrMentionsCounts)
{
    Report r;
    for (int i = 0; i < 3; i++)
        r.add(finding(Severity::Fail, FindingKind::NotPersisted,
                      "y.cc", 9));
    const std::string s = r.summaryStr();
    EXPECT_NE(s.find("x3"), std::string::npos);
    EXPECT_NE(s.find("y.cc:9"), std::string::npos);
}

TEST(ReportTest, FindingStrFormat)
{
    const auto f = finding(Severity::Warn, FindingKind::DuplicateLog,
                           "z.cc", 11, 0x10);
    EXPECT_EQ(f.str(), "WARN(duplicate-log) object [0x10,0x18) is "
                       "already in the undo log of this transaction @ "
                       "z.cc:11 [f0:t0:op0]");
}

TEST(ReportTest, FindingStrRendersIdentityTriple)
{
    auto f = finding(Severity::Fail, FindingKind::NotPersisted,
                     "a.cc", 3);
    f.fileId = 2;
    f.traceId = 17;
    f.opIndex = 4;
    f.evidence.epochA = 5;
    EXPECT_EQ(f.str(), "FAIL(not-persisted) data in [0x0,0x8) may not "
                       "have persisted (persist interval still open at "
                       "epoch 5) @ a.cc:3 [f2:t17:op4]");
}

TEST(ReportTest, KindNamesAreStable)
{
    EXPECT_STREQ(findingKindName(FindingKind::NotPersisted),
                 "not-persisted");
    EXPECT_STREQ(findingKindName(FindingKind::MissingLog),
                 "missing-log");
    EXPECT_STREQ(findingKindName(FindingKind::Malformed),
                 "malformed-trace");
}

} // namespace
} // namespace pmtest::core
