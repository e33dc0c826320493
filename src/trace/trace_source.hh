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
 * Identity model: every trace carries a stable (fileId, traceId)
 * pair — fileId assigned per input source in input order, traceId
 * recorded by the producer — and its source locations point into a
 * string arena the consumer receives with the trace. Because
 * `Report::canonicalize()` sorts findings by (fileId, traceId,
 * opIndex), any assignment of sources/shards to threads produces a
 * byte-identical merged report.
 *
 * Implementations:
 *  - V2FileSource      whole v2 file, or a byte-range shard of one
 *                      ([begin, end) slice of the index footer);
 *                      decode happens on the claiming thread, so N
 *                      threads decode N traces concurrently.
 *  - CaptureTraceSource the in-process capture sink: the program
 *                      under test pushes sealed traces, the checking
 *                      threads claim them.
 *  - MultiTraceSource  an ordered set of child sources (multiple
 *                      files, or the shards of one file), drained in
 *                      order with cross-child parallelism.
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
 * core's engine adapter implements it.
 */
class TraceConsumer
{
  public:
    /** Ops one decode window holds (~112 KiB of PmOps). */
    static constexpr size_t kWindowOps = 2048;

    /** Arena a decoded trace's source locations point into. */
    using Arena = std::shared_ptr<const std::deque<std::string>>;

    virtual ~TraceConsumer() = default;

    /** Consume a whole in-memory trace. */
    virtual void consume(const Trace &trace) = 0;

    /** Start a windowed trace; its ops follow through feed(). */
    virtual void begin(uint64_t trace_id, uint32_t file_id) = 0;

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

/**
 * A thread-safe provider of traces. checkNext() and pull() may be
 * called concurrently from any number of threads; each call claims
 * disjoint traces.
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

    /** Human-readable source name (path, "path[2/4]", "<capture>"). */
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
};

/**
 * A whole v2 indexed file, or a [begin, end) index slice of one
 * (a byte-range shard). Shards of the same file share one reader —
 * one mapping, one validation — via the shared_ptr. pull() and
 * checkNext() claim indices from one atomic cursor and decode
 * outside any lock, so concurrent callers decode different traces in
 * parallel.
 */
class V2FileSource final : public TraceSource
{
  public:
    /** Source over the whole of @p reader. */
    V2FileSource(std::shared_ptr<const TraceFileReader> reader,
                 std::string path, uint32_t file_id);

    /**
     * Source over index entries [begin, end) of @p reader; the name
     * is "path[shard/shards]" when @p shards > 1.
     */
    V2FileSource(std::shared_ptr<const TraceFileReader> reader,
                 std::string path, uint32_t file_id, size_t begin,
                 size_t end, size_t shard, size_t shards);

    const std::string &name() const override { return name_; }
    size_t traceCount() const override { return end_ - begin_; }
    uint64_t totalOps() const override;
    uint64_t sizeBytes() const override;
    bool mmapBacked() const override { return reader_->mmapBacked(); }

    Pull pull(size_t max, std::vector<Trace> *out,
              SourceError *error) override;

    /** Decodes the claimed trace a window at a time into @p consumer. */
    Pull checkNext(TraceConsumer &consumer, SourceError *error) override;

    uint64_t consumedTraces() const override
    {
        return consumedTraces_.load(std::memory_order_relaxed);
    }
    uint64_t consumedBytes() const override
    {
        return consumedBytes_.load(std::memory_order_relaxed);
    }

    /** First index (inclusive) of this source's slice. */
    size_t begin() const { return begin_; }

    /** One-past-last index of this source's slice. */
    size_t end() const { return end_; }

  private:
    /** Set *error to trace @p index's decode failure. */
    void decodeError(size_t index, SourceError *error) const;
    /** Count trace @p index as consumed. */
    void consumed(size_t index);

    std::shared_ptr<const TraceFileReader> reader_;
    std::string path_; ///< bare file path (for SourceError)
    std::string name_; ///< path, possibly with a [shard/shards] tag
    uint32_t fileId_;
    size_t begin_;
    size_t end_;
    std::atomic<size_t> cursor_;
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
 * composite only routes claims: concurrent callers drain the current
 * child together and roll over to the next when it ends — shards and
 * multi-file sets parallelize across children with no barrier.
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

/**
 * Split @p reader's index into @p shards byte-balanced contiguous
 * slices (frame-byte partitioning, so one huge trace does not leave
 * its shard siblings idle). Returns fewer sources than requested
 * when the file has fewer traces than shards; at least one source is
 * returned even for an empty file.
 */
std::vector<std::unique_ptr<TraceSource>>
shardTraceSource(std::shared_ptr<const TraceFileReader> reader,
                 const std::string &path, uint32_t file_id,
                 size_t shards);

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_SOURCE_HH
