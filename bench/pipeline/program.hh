/**
 * @file
 * The programs bench_pipeline checks. Every workload is a program
 * whose PM operations PMTest observes, plus the answer the checker
 * must give, computed by construction and never by the checker:
 *
 *  - SyntheticProgram: rounds of write/writeback/fence/checker
 *    sequences over a PM buffer, with bugs injected at seeded
 *    positions. Its known answer is the exact (fileId, traceId,
 *    opIndex, kind) set of the injected bugs. The offline workloads
 *    record it to v2 trace files and check those.
 *  - KvProgram: memcached-lite driven by the YCSB-A client. It is
 *    crash-consistent, so the answer is "no findings", and it seals
 *    one trace per SET, so the trace count is known from the client's
 *    request stream. The online workload checks it live.
 *
 * A program runs the same way whether PMTest is absent (native),
 * capturing into a sink, or checking live: the caller decides by
 * initializing the framework (or not) before execute().
 */

#ifndef PMTEST_BENCH_PIPELINE_PROGRAM_HH
#define PMTEST_BENCH_PIPELINE_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/report.hh"
#include "mnemosyne/region.hh"
#include "trace/trace.hh"
#include "workloads/clients.hh"
#include "workloads/memcached_lite.hh"

namespace pmtest::bench
{

/** One finding the checker must report. */
struct ExpectedFinding
{
    uint32_t fileId = 0;
    uint64_t traceId = 0;
    uint64_t opIndex = 0;
    core::FindingKind kind = core::FindingKind::NotPersisted;

    auto operator<=>(const ExpectedFinding &) const = default;
};

/** What a correct checker reports for one recorded input set. */
struct KnownAnswer
{
    std::vector<ExpectedFinding> findings; ///< sorted
    uint64_t traces = 0;
    uint64_t ops = 0;
};

/** A program under test. */
class Program
{
  public:
    virtual ~Program() = default;

    /** Requests one execute() serves (rounds or client requests). */
    virtual uint64_t requests() const = 0;

    /** Traces one execute() seals. */
    virtual uint64_t traces() const = 0;

    /** Findings a live check of one execute() must report. */
    virtual const std::vector<ExpectedFinding> &findings() const = 0;

    /**
     * Run the program once. @p checkers selects whether checker
     * annotations are emitted (native runs leave them out, as the
     * Fig. 11 harness does).
     */
    virtual void execute(bool checkers) = 0;

    /**
     * Make a captured trace independent of where this process placed
     * its buffers, so the same seed records byte-identical files.
     */
    virtual void normalize(Trace &) const {}
};

/** Shape of a SyntheticProgram. */
struct SyntheticSpec
{
    size_t files = 1;
    size_t tracesPerFile = 1;
    /** Rounds per trace: evenly spaced over [min, max], shuffled. */
    size_t minRounds = 1;
    size_t maxRounds = 1;
    /** 64-byte objects in the buffer (the working-set size). */
    size_t slots = 4096;
    /** Clean-round mix in percent; the rest are transactions. */
    unsigned persistPct = 50;
    unsigned orderedPct = 25;
    /** One bug in every block of this many consecutive rounds. */
    size_t bugEvery = 64;
    /** Bugs cycle through four kinds (else missing writebacks only). */
    bool mixedBugs = false;
};

/** Seeded rounds of PM operations with injected bugs. */
class SyntheticProgram final : public Program
{
  public:
    SyntheticProgram(const SyntheticSpec &spec, uint64_t seed);
    ~SyntheticProgram() override;

    SyntheticProgram(const SyntheticProgram &) = delete;
    SyntheticProgram &operator=(const SyntheticProgram &) = delete;

    uint64_t requests() const override { return rounds_; }
    uint64_t traces() const override { return plans_.size(); }
    const std::vector<ExpectedFinding> &
    findings() const override
    {
        return answer_.findings;
    }
    void execute(bool checkers) override;
    void normalize(Trace &trace) const override;

    /** Traces recorded into each file, in capture order. */
    size_t tracesPerFile() const { return spec_.tracesPerFile; }

    /** The answer for the recorded files (traceId = index in file). */
    const KnownAnswer &answer() const { return answer_; }

  private:
    enum class RoundKind : uint8_t
    {
        Persist,
        Ordered,
        Tx,
        BugNotPersisted,
        BugNotOrdered,
        BugMissingLog,
        BugRedundantFlush,
    };

    struct Round
    {
        RoundKind kind;
        uint32_t a;
        uint32_t b;
    };

    /** Ops a round records, and where its finding lands. */
    static size_t roundOps(RoundKind kind);
    static bool roundFinding(RoundKind kind, size_t *offset,
                             core::FindingKind *finding);

    void emit(const Round &round);

    SyntheticSpec spec_;
    std::vector<std::vector<Round>> plans_; ///< one per trace
    uint64_t rounds_ = 0;
    KnownAnswer answer_;
    uint8_t *buffer_ = nullptr; ///< slots * 64 bytes, 64-aligned
    uint8_t payload_[64] = {};
};

/** Shape of a KvProgram. */
struct KvSpec
{
    size_t requests = 150000;
    size_t keys = 10000;
    size_t valueSize = 128;
};

/** memcached-lite under the YCSB-A client, pre-populated. */
class KvProgram final : public Program
{
  public:
    KvProgram(const KvSpec &spec, uint64_t seed);

    uint64_t requests() const override { return config_.ops; }
    uint64_t traces() const override { return sets_; }
    const std::vector<ExpectedFinding> &
    findings() const override
    {
        return none_;
    }
    void execute(bool checkers) override;

  private:
    workloads::ClientConfig config_;
    std::unique_ptr<mnemosyne::Region> region_;
    std::unique_ptr<workloads::MemcachedLite> server_;
    uint64_t sets_ = 0;
    std::vector<ExpectedFinding> none_;
};

} // namespace pmtest::bench

#endif // PMTEST_BENCH_PIPELINE_PROGRAM_HH
