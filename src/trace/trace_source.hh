/**
 * @file
 * TraceSource: the one abstraction every checking path reads traces
 * through.
 *
 * The offline/online checking pipeline has two entry paths — the v2
 * indexed file reader and the in-process capture sink. A TraceSource
 * turns both into one thread-safe shape with two ways to consume it:
 *  - checkNext() claims the next whole trace and runs it through the
 *    caller's TraceConsumer (a checking engine). File sources decode
 *    it a fixed window of ops at a time straight into the consumer,
 *    so any number of threads can each claim, decode and check
 *    traces with no queue between decode and check — the offline
 *    path of `core::ingest` (paper §4.4: traces are independent, so
 *    any thread can check any whole trace).
 *  - pull() decodes whole traces into a vector, for callers that
 *    want the Trace objects themselves (benches, tests).
 *
 * Claim order: checkNext() on file sources claims every trace longer
 * than one decode window first, most ops first, from one
 * ClaimSchedule built from the v2 index when the source opens (a
 * file set merges its files' long traces into one schedule); the
 * remaining traces follow in index order, file by file. pull() claims
 * in index order. The capture source claims in arrival order.
 *
 * Identity model: every trace carries a stable (fileId, traceId)
 * pair — fileId assigned per input source in input order, traceId
 * recorded by the producer — and its source locations point into a
 * string arena the consumer receives with the trace. Because
 * `Report::canonicalize()` sorts findings by (fileId, traceId,
 * opIndex), any claim order and any assignment of traces to threads
 * produce a byte-identical merged report.
 *
 * Implementations:
 *  - V2FileSource      one whole v2 file; decode happens on the
 *                      claiming thread, so N threads decode N traces
 *                      concurrently.
 *  - CaptureTraceSource the in-process capture sink: the program
 *                      under test pushes sealed traces, the checking
 *                      threads claim them.
 *  - MultiTraceSource  an ordered set of child sources (one per
 *                      input file): their long traces from one
 *                      merged schedule, then the rest drained child
 *                      by child with cross-child parallelism.
 */

#ifndef PMTEST_TRACE_TRACE_SOURCE_HH
#define PMTEST_TRACE_TRACE_SOURCE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_reader.hh"

namespace pmtest
{

/**
 * Where and why a source failed to yield a trace: the file (or
 * source name), the index of the offending trace within that file,
 * and a human-readable reason. pmtest_check prints these verbatim.
 */
struct SourceError
{
    std::string file;
    size_t traceIndex = 0;
    std::string message;

    /** Render as "file: trace #N: message". */
    std::string str() const;
};

/**
 * The checking side of TraceSource::checkNext: receives one claimed
 * trace, either whole (consume) or as begin, one feed() per decode
 * window, then finish. A trace whose decode fails part-way gets no
 * finish(); the next begin() or consume() discards what it was fed.
 * Both carry the trace's index within its source (a file's index
 * entry, a capture's arrival order), which breaks ties between
 * traces that share a (fileId, traceId): the checking pool places
 * reports by (fileId, traceId, index), the order a serial pass over
 * the source produces. core's engine adapter implements it.
 */
class TraceConsumer
{
  public:
    /** Ops one decode window holds (~112 KiB of PmOps). */
    static constexpr size_t kWindowOps = 2048;

    /** Arena a decoded trace's source locations point into. */
    using Arena = std::shared_ptr<const std::deque<std::string>>;

    virtual ~TraceConsumer() = default;

    /** Consume a whole in-memory trace, the @p index-th of its source. */
    virtual void consume(const Trace &trace, size_t index) = 0;

    /**
     * Start a windowed trace, the @p index-th of its source; its ops
     * follow through feed().
     */
    virtual void begin(uint64_t trace_id, uint32_t file_id,
                       size_t index) = 0;

    /** The next @p count ops of the begun trace, in program order. */
    virtual void feed(const PmOp *ops, size_t count) = 0;

    /** The begun trace is complete; its locations live in @p arena. */
    virtual void finish(Arena arena) = 0;

    /**
     * Reusable decode storage of kWindowOps ops for windowed sources,
     * allocated on first use and kept for this consumer's lifetime.
     */
    PmOp *window();

    /** Time sources spent decoding into this consumer (ns). */
    uint64_t decodeNanos() const { return decodeNanos_; }

    /** Account @p nanos of decode time (sources call this). */
    void addDecodeNanos(uint64_t nanos) { decodeNanos_ += nanos; }

  private:
    std::vector<PmOp> window_;
    uint64_t decodeNanos_ = 0;
};

class V2FileSource;

/**
 * The claim order of a file source's long traces — those of more than
 * one decode window: most ops first, ties by (fileId, index). An
 * early-finishing thread takes the next-longest trace, so the traces
 * claimed last are the shortest and every thread's busy time ends
 * close to the mean (Graham's longest-processing-time rule), where
 * index order can leave a long trace for last. Traces of one window
 * or less carry no balance and are not scheduled: they keep index
 * order, and with it their locality. Entries are fixed when the
 * schedule is built; claim() is safe from any number of threads.
 */
class ClaimSchedule
{
  public:
    /** One long trace: trace @p index of @p source. */
    struct Entry
    {
        uint64_t ops;
        uint32_t fileId;
        size_t index;
        V2FileSource *source;
    };

    /** Whether a trace of @p ops ops is claimed ahead of index order. */
    static bool isLong(uint64_t ops)
    {
        return ops > TraceConsumer::kWindowOps;
    }

    /** Schedule @p entries (long traces only) in claim order. */
    explicit ClaimSchedule(std::vector<Entry> entries);

    /** The next entry to check, or nullptr once all are claimed. */
    const Entry *claim();

    /** Hand over every entry, leaving none; only before any claim(). */
    std::vector<Entry> take() { return std::exchange(entries_, {}); }

  private:
    std::vector<Entry> entries_;
    std::atomic<size_t> next_{0};
};

/**
 * A thread-safe provider of traces. checkNext() and pull() may be
 * called concurrently from any number of threads; each call claims
 * disjoint traces. Drain a source through one of the two: they claim
 * in different orders, so mixing them can yield a trace twice.
 */
class TraceSource
{
  public:
    /** traceCount() value when the total is not known up front. */
    static constexpr size_t kUnknownCount = ~size_t{0};

    /** Outcome of one pull() call. */
    enum class Pull
    {
        Items, ///< @p out received at least one trace
        End,   ///< the source is exhausted (nothing appended)
        Error, ///< a trace failed to decode; *error describes it
    };

    virtual ~TraceSource() = default;

    /** Human-readable source name (path, "<capture>"). */
    virtual const std::string &name() const = 0;

    /** Traces this source will yield, or kUnknownCount. */
    virtual size_t traceCount() const = 0;

    /** Total PM ops, when an index knows it up front (else 0). */
    virtual uint64_t totalOps() const = 0;

    /** Bytes mapped/buffered behind this source (0 when n/a). */
    virtual uint64_t sizeBytes() const = 0;

    /** True when every byte behind this source is mmap-backed. */
    virtual bool mmapBacked() const = 0;

    /** Number of leaf sources (composites sum their children). */
    virtual size_t sourceCount() const { return 1; }

    /**
     * Traces already yielded by pull() (monotonic). Composites sum
     * their children. Thread-safe at any moment of a live run — this
     * is the ingest-progress gauge the metrics publisher samples.
     */
    virtual uint64_t consumedTraces() const { return 0; }

    /**
     * Input bytes behind the yielded traces (frame bytes for indexed
     * files, 0 where byte accounting is meaningless, e.g. in-process
     * capture).
     */
    virtual uint64_t consumedBytes() const { return 0; }

    /**
     * Claim and decode up to @p max traces into @p out (appended).
     * Every yielded trace has its fileId stamped and its string
     * arena attached. Blocking is implementation-defined: file
     * sources never block; the capture source blocks until traces
     * arrive or the producer closes it.
     */
    virtual Pull pull(size_t max, std::vector<Trace> *out,
                      SourceError *error) = 0;

    /**
     * Claim the next trace and run it through @p consumer: Items when
     * one trace was consumed to its end (stamped with its fileId),
     * End when the source is exhausted, Error (with *error set, and
     * no finish() for the failed trace) when it failed to decode.
     * Blocks like pull().
     */
    virtual Pull checkNext(TraceConsumer &consumer,
                           SourceError *error) = 0;

    /**
     * Hand this source's long traces over to a composite's merged
     * schedule (before any claim); checkNext() then claims only the
     * short ones. Sources without an index have none.
     */
    virtual std::vector<ClaimSchedule::Entry> takeLongTraces()
    {
        return {};
    }
};

/**
 * A whole v2 indexed file. checkNext() claims the file's long traces
 * from its ClaimSchedule, then the short ones from an atomic cursor
 * in index order; pull() claims every trace from that cursor. Decode
 * happens outside any lock, so concurrent callers decode different
 * traces in parallel.
 */
class V2FileSource final : public TraceSource
{
  public:
    /** Source over the whole of @p reader. */
    V2FileSource(std::unique_ptr<const TraceFileReader> reader,
                 std::string path, uint32_t file_id);

    const std::string &name() const override { return path_; }
    size_t traceCount() const override { return reader_->traceCount(); }
    uint64_t totalOps() const override;
    uint64_t sizeBytes() const override { return reader_->sizeBytes(); }
    bool mmapBacked() const override { return reader_->mmapBacked(); }

    Pull pull(size_t max, std::vector<Trace> *out,
              SourceError *error) override;

    /** Decodes the claimed trace a window at a time into @p consumer. */
    Pull checkNext(TraceConsumer &consumer, SourceError *error) override;

    /** checkNext() on trace @p index, which the caller has claimed. */
    Pull checkTrace(size_t index, TraceConsumer &consumer,
                    SourceError *error);

    std::vector<ClaimSchedule::Entry> takeLongTraces() override
    {
        return schedule_.take();
    }

    uint64_t consumedTraces() const override
    {
        return consumedTraces_.load(std::memory_order_relaxed);
    }
    uint64_t consumedBytes() const override
    {
        return consumedBytes_.load(std::memory_order_relaxed);
    }

  private:
    /** Set *error to trace @p index's decode failure. */
    void decodeError(size_t index, SourceError *error) const;
    /** Count trace @p index as consumed. */
    void consumed(size_t index);

    std::unique_ptr<const TraceFileReader> reader_;
    std::string path_;
    uint32_t fileId_;
    ClaimSchedule schedule_;
    /**
     * Index order. Every claim writes it, so it starts its own cache
     * line: the fields every claim only reads (reader_, schedule_)
     * then stay shared between the claiming threads.
     */
    alignas(64) std::atomic<size_t> cursor_{0};
    std::atomic<uint64_t> consumedTraces_{0};
    std::atomic<uint64_t> consumedBytes_{0};
};

/**
 * The in-process capture sink as a TraceSource: the program under
 * test pushes sealed traces (install sink() via pmtestSetTraceSink),
 * the checking side claims them through the same ingest() loop the
 * offline paths use. pull() and checkNext() block until traces
 * arrive or close().
 */
class CaptureTraceSource final : public TraceSource
{
  public:
    explicit CaptureTraceSource(std::string name = "<capture>",
                                uint32_t file_id = 0);

    /** Enqueue one sealed trace (producer side; any thread). */
    void push(Trace &&trace);

    /** No more traces will arrive; blocked pulls drain and end. */
    void close();

    /** A sink callable suitable for pmtestSetTraceSink(). */
    std::function<void(Trace &&)> sink();

    const std::string &name() const override { return name_; }
    size_t traceCount() const override { return kUnknownCount; }
    uint64_t totalOps() const override { return 0; }
    uint64_t sizeBytes() const override { return 0; }
    bool mmapBacked() const override { return false; }

    Pull pull(size_t max, std::vector<Trace> *out,
              SourceError *error) override;

    /** Checks the next pushed trace whole (consumer.consume). */
    Pull checkNext(TraceConsumer &consumer, SourceError *error) override;

    uint64_t consumedTraces() const override;

  private:
    /** pull(), also reporting the arrival index of the first trace. */
    Pull claim(size_t max, std::vector<Trace> *out, uint64_t *first);

    std::string name_;
    uint32_t fileId_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Trace> queue_; ///< guarded by mutex_
    size_t head_ = 0;          ///< first unpulled element
    uint64_t pulled_ = 0;      ///< lifetime total (survives drains)
    bool closed_ = false;
};

/**
 * An ordered set of child sources drained front to back. Identity
 * comes from the children (each stamps its own fileId), so the
 * composite only routes claims. checkNext() first claims every
 * child's long traces from one schedule merged across the children
 * (per-file schedules would claim a later file's long traces after
 * an earlier file's short ones); then concurrent callers drain the
 * current child together and roll over to the next when it ends — a
 * multi-file set parallelizes across children with no barrier.
 */
class MultiTraceSource final : public TraceSource
{
  public:
    explicit MultiTraceSource(
        std::vector<std::unique_ptr<TraceSource>> children);

    const std::string &name() const override { return name_; }
    size_t traceCount() const override;
    uint64_t totalOps() const override;
    uint64_t sizeBytes() const override;
    bool mmapBacked() const override;
    size_t sourceCount() const override;
    uint64_t consumedTraces() const override;
    uint64_t consumedBytes() const override;

    /** The child sources, for per-source reporting. */
    const std::vector<std::unique_ptr<TraceSource>> &
    children() const
    {
        return children_;
    }

    Pull pull(size_t max, std::vector<Trace> *out,
              SourceError *error) override;

    Pull checkNext(TraceConsumer &consumer, SourceError *error) override;

  private:
    /** Route @p call to the current child, rolling over ended ones. */
    template <typename Call>
    Pull route(const Call &call);

    std::vector<std::unique_ptr<TraceSource>> children_;
    std::string name_;
    ClaimSchedule schedule_;         ///< every child's long traces
    std::atomic<size_t> current_{0}; ///< first non-exhausted child
};

/**
 * Open one v2 trace file as a source, stamping its traces with
 * @p file_id. IngestMode::Mmap requires the file to be mmap-able;
 * IngestMode::Auto falls back to reading it to EOF (pipes, FIFOs).
 * @return nullptr with *error ("path: reason") set when the file
 *         cannot be read or is not a valid v2 trace file.
 */
std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, IngestMode mode,
                uint32_t file_id, std::string *error);

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_SOURCE_HH
