/**
 * @file
 * Testing results. The engine emits FAIL findings for crash
 * consistency bugs (a checker condition that the trace cannot
 * guarantee) and WARN findings for performance bugs (redundant
 * writebacks, duplicated logs), each carrying the offending file:line
 * — the output format of the paper's Fig. 6. A finding stores the
 * evidence its rule decided from (a cause, two ranges, two epochs),
 * not prose; findingMessage renders the text when output is written.
 */

#ifndef PMTEST_CORE_REPORT_HH
#define PMTEST_CORE_REPORT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/interval.hh"
#include "trace/fix_hint.hh"
#include "util/source_location.hh"

namespace pmtest::core
{

/** Finding severity. */
enum class Severity : uint8_t
{
    Warn, ///< performance bug; program is correct but wasteful
    Fail, ///< crash consistency bug
};

/** What kind of rule produced the finding. */
enum class FindingKind : uint8_t
{
    NotPersisted,       ///< isPersist failed
    NotOrdered,         ///< isOrderedBefore failed
    MissingLog,         ///< TX write without a prior TX_ADD backup
    IncompleteTx,       ///< updates not persisted when the TX ended
    UnmatchedTx,        ///< TX_CHECKER region closed with open TX
    RedundantFlush,     ///< writeback issued twice without a fence
    UnnecessaryFlush,   ///< writeback of unmodified data
    DuplicateLog,       ///< same object logged twice in one TX
    Malformed,          ///< structurally invalid trace (API misuse)
};

/** Human-readable name for a finding kind. */
const char *findingKindName(FindingKind kind);

/**
 * Why a finding fired: one value per message template, so the
 * message is rendered from the cause and the Evidence alone
 * (findingMessage), and only when output is written. Each cause
 * belongs to exactly one FindingKind (causeKind). The comments name
 * the Evidence fields a cause reads; the others stay zero.
 */
enum class Cause : uint8_t
{
    PersistOpen,          ///< NotPersisted: range A still open at
                          ///< epoch A (the current epoch)
    PmemcheckStore,       ///< NotPersisted: a checked word not clean
    PmemcheckStoreAtExit, ///< NotPersisted: word range A dirty at exit
    PersistNotBefore,     ///< NotOrdered (strict): A's persist ends at
                          ///< epoch A (kInfEpoch: never), after B's
                          ///< may begin at epoch B
    WriteNotFenced,       ///< NotOrdered (HOPS): write A at epoch A is
                          ///< not fenced from write B at epoch B
    WriteWithoutLog,      ///< MissingLog: TX write to range A
    TxUpdateNotPersisted, ///< IncompleteTx: PersistOpen's A and epoch
                          ///< A, for the TX write at writeLoc
    TxOpenAtTraceEnd,     ///< UnmatchedTx: epoch A holds the number of
                          ///< transactions still open
    TxOpenAtCheckerEnd,   ///< UnmatchedTx at TX_CHECKER_END
    WritebackRedundant,   ///< RedundantFlush: x86 writeback of A
    CvapRedundant,        ///< RedundantFlush: ARM DC CVAP of A
    PmemcheckReflush,     ///< RedundantFlush: flush of flushed words
    WritebackUnmodified,  ///< UnnecessaryFlush: x86, A never written
    WritebackClean,       ///< UnnecessaryFlush: x86, A already durable
    CvapUnmodified,       ///< UnnecessaryFlush: ARM, A never written
    CvapClean,            ///< UnnecessaryFlush: ARM, A already durable
    PmemcheckCleanFlush,  ///< UnnecessaryFlush: flush of clean words
    LogDuplicate,         ///< DuplicateLog: range A logged twice
    TxEndWithoutBegin,    ///< Malformed
    TxAddOutsideTx,       ///< Malformed: TX_ADD of range A
    TxCheckerEndWithoutStart, ///< Malformed
    OpNotInX86,           ///< Malformed: op not in the x86 model
    OpNotInHops,          ///< Malformed: op not in the HOPS model
    OpNotInArm,           ///< Malformed: op not in the ARM model
    TxCheckerOpenAtTraceEnd, ///< Malformed: TX_CHECKER_START never
                             ///< closed
    TxCheckerNestedStart,    ///< Malformed: TX_CHECKER_START inside an
                             ///< open TX_CHECKER region
};

/** The highest Cause value (wire validation). */
inline constexpr Cause kLastCause = Cause::TxCheckerNestedStart;

/** Stable machine-readable name of a cause ("persist-open", ...). */
const char *causeName(Cause cause);

/** The one finding kind @p cause can explain. */
FindingKind causeKind(Cause cause);

/**
 * The evidence a rule decided from (paper §4.4, Fig. 7): the ranges
 * whose persist intervals were compared and the epochs that decided
 * it. Which fields a finding carries depends on its Cause.
 */
struct Evidence
{
    AddrRange rangeA{};
    union
    {
        AddrRange rangeB;
        SourceLocation writeLoc; ///< TxUpdateNotPersisted only
    };
    Epoch epochA = 0;
    Epoch epochB = 0;

    constexpr Evidence() : rangeB() {}
};

/** One WARN/FAIL record. */
struct Finding
{
    Severity severity = Severity::Fail;
    FindingKind kind = FindingKind::NotPersisted;
    Cause cause = Cause::PersistOpen;
    OpType op = OpType::Write; ///< OpNotIn*: the undefined op
    uint32_t fileId = 0; ///< which input source the trace came from
    SourceLocation loc{};
    uint64_t traceId = 0;
    size_t opIndex = 0; ///< index of the offending op within the trace
    Evidence evidence{};

    /**
     * Machine-readable repair proposal, synthesized by the emitting
     * check when it knows the mechanical fix (hint.valid() is false
     * for Malformed and other unfixable findings). Only trustworthy
     * once core::verifyHints has set hint.verified by replaying the
     * patched trace.
     */
    FixHint hint{};

    /** Render as "FAIL(kind) message @ file:line [fN:tM:opK]". */
    std::string str() const;
};

// Findings are copied, merged, sorted and written by the tens of
// thousands; the kernel must not allocate for them.
static_assert(std::is_trivially_copyable_v<Finding> &&
                  sizeof(Finding) <= 144,
              "Finding must stay a fixed-size, trivially copyable record");

/**
 * The message text of @p f, rendered from its cause and evidence —
 * the one place finding prose is built.
 */
std::string findingMessage(const Finding &f);

/** The result of checking one trace. */
class Report
{
  public:
    /** The arena type findings' location strings may point into. */
    using Arena = std::shared_ptr<const std::deque<std::string>>;

    Report() = default;
    explicit Report(uint64_t trace_id, uint32_t file_id = 0)
        : traceId_(trace_id), fileId_(file_id)
    {
    }

    /** Record a finding (counts synthesized fix hints as it goes). */
    void add(Finding finding);

    /** All findings, in detection order. */
    const std::vector<Finding> &findings() const { return findings_; }

    /** Mutable findings, for the hint-verification pass. */
    std::vector<Finding> &mutableFindings() { return findings_; }

    /** Number of FAIL findings. */
    size_t failCount() const;

    /** Number of WARN findings. */
    size_t warnCount() const;

    /** True when no FAIL findings were recorded. */
    bool passed() const { return failCount() == 0; }

    /** True when nothing at all was recorded. */
    bool clean() const { return findings_.empty(); }

    /** Id of the checked trace. */
    uint64_t traceId() const { return traceId_; }

    /** Id of the input source the checked trace came from. */
    uint32_t fileId() const { return fileId_; }

    /** Merge another report's findings (and held arenas) into this. */
    void merge(const Report &other);

    /**
     * Merge by moving @p other's findings and arenas in; @p other is
     * left empty. Same result as the copying merge.
     */
    void merge(Report &&other);

    /** Make room for @p more findings, so merges up to it never grow. */
    void reserve(size_t more) { findings_.reserve(findings_.size() + more); }

    /**
     * Set every finding's (fileId, traceId) to this report's
     * identity. The checking kernels only record opIndex (they do
     * not know the trace identity); the engine stamps it once per
     * checked trace so merged reports can be canonicalized.
     */
    void stampIdentity();

    /**
     * Share ownership of the string arena findings' source-location
     * file names point into. A Report that holds its traces' arenas
     * is self-contained: it stays valid after the trace, the reader
     * and every other pipeline object are gone. Null arenas (live
     * captures point at static __FILE__ literals) are ignored.
     */
    void holdArena(Arena arena);

    /** Arenas this report keeps alive (merge concatenates them). */
    const std::vector<Arena> &arenas() const { return arenas_; }

    /**
     * Reorder findings into the canonical order: stable sort by
     * (fileId, traceId, opIndex). A report already in that order —
     * the pool places offline reports by (fileId, traceId, index
     * within the source) — is left as it is after one pass comparing
     * neighbours. Otherwise it sorts compact keys with the current
     * position as the last tiebreak, then applies one in-place
     * move-permutation of the findings. Per-trace findings stay in
     * detection order (each trace is checked whole by one engine), so
     * a report merged from parallel workers over any shard/source
     * assignment canonicalizes to the exact byte sequence the serial
     * path produces — the determinism contract of the parallel
     * offline-check pipeline.
     */
    void canonicalize();

    /** Multi-line dump of all findings. */
    std::string str() const;

    /**
     * One aggregated line per distinct (severity, kind, location):
     * long runs repeat the same finding thousands of times (e.g. a
     * buggy insert path hit per operation); the summary is what a
     * developer actually reads.
     */
    struct SummaryLine
    {
        Severity severity;
        FindingKind kind;
        SourceLocation loc;
        size_t count;
        std::string firstMessage; ///< rendered by summary()
    };

    /** Deduplicated findings, most frequent first. */
    std::vector<SummaryLine> summary() const;

    /** Render the summary. */
    std::string summaryStr() const;

  private:
    uint64_t traceId_ = 0;
    uint32_t fileId_ = 0;
    std::vector<Finding> findings_;
    std::vector<Arena> arenas_; ///< keeps finding locations alive
};

} // namespace pmtest::core

#endif // PMTEST_CORE_REPORT_HH
