/**
 * @file
 * Indexed, zero-copy access to a v2 trace file (trace_io.hh): the
 * reader maps the file with mmap (or, as a fallback for inputs that
 * cannot be mapped, such as pipes, reads it to EOF into one buffer),
 * validates the index footer once — magic, CRC32,
 * exact size accounting, frame chaining — and then decodes *one
 * trace per call* straight from its framed slice.
 *
 * Per-trace access is what lets every checking thread claim a whole
 * trace and check it where it is decoded; openTrace() streams one
 * trace's ops a fixed window at a time, so peak memory is one window
 * per thread rather than whole traces (see core/trace_ingest.hh).
 *
 * Safety contract: open() fails closed on any structural damage
 * (truncation, corrupt footer, CRC mismatch, frame lengths that do
 * not chain exactly to the index), and decode() never reads outside
 * the mapping — every field access is bounds-checked against the
 * trace's own frame.
 */

#ifndef PMTEST_TRACE_TRACE_READER_HH
#define PMTEST_TRACE_TRACE_READER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace pmtest
{

/** How a trace file is brought into memory. */
enum class IngestMode
{
    Auto, ///< mmap if possible, else read() to EOF
    Mmap, ///< require mmap
};

/**
 * One decoded trace plus the string arena its source locations point
 * into. Arenas are per-trace so concurrent decode() calls never
 * share mutable state; keep the bundle alive as long as the trace
 * (or any Finding derived from it) is used.
 */
struct DecodedTrace
{
    Trace trace;
    std::shared_ptr<std::deque<std::string>> strings;
};

/** Random-access reader over a mapped v2 trace file. */
class TraceFileReader
{
  public:
    /**
     * Open and validate @p path.
     * @return the reader, or nullptr (with *error set to
     *         "path: reason") when the file is missing, not a v2 trace
     *         file (v1 files are reported as unsupported), or
     *         structurally damaged.
     */
    static std::unique_ptr<TraceFileReader>
    open(const std::string &path, IngestMode mode = IngestMode::Auto,
         std::string *error = nullptr);

    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /** Number of traces in the file. */
    size_t traceCount() const { return index_.size(); }

    /** Op count of trace @p i (from the index; no decode needed). */
    uint32_t opCount(size_t i) const { return index_[i].opCount; }

    /**
     * Bytes trace @p i occupies on disk (length prefix + framed
     * body). Validation proved the frames tile [header, index)
     * exactly, so this is the gap to the next frame (or the index).
     * The consumed-bytes progress gauge sums these.
     */
    uint64_t
    frameBytes(size_t i) const
    {
        const uint64_t next = i + 1 < index_.size()
                                  ? index_[i + 1].offset
                                  : indexOffset_;
        return next - index_[i].offset;
    }

    /** Producing thread of trace @p i. */
    uint32_t threadId(size_t i) const { return index_[i].threadId; }

    /** Total PM operations across all traces (index sum). */
    uint64_t totalOps() const;

    /** True when the file is mmap-backed (false: heap buffer). */
    bool mmapBacked() const { return mmapped_; }

    /** Bytes mapped (or buffered) for the whole file. */
    size_t sizeBytes() const { return size_; }

    /**
     * Open trace @p i for windowed decoding: the body header, string
     * table and op-array size are validated, and the op count and
     * thread id cross-checked against the index, before any op is
     * decoded. The cursor's ops point into *@p strings (a fresh
     * per-trace arena). Thread-safe like decode().
     * @return false when the body is malformed (fails closed).
     */
    bool openTrace(size_t i, OpCursor *cursor,
                   std::shared_ptr<std::deque<std::string>> *strings)
        const;

    /**
     * Decode trace @p i from its framed slice. Thread-safe: the
     * mapping is immutable and each call fills its own arena.
     * @return false when the body is malformed (fails closed).
     */
    bool decode(size_t i, DecodedTrace *out) const;

  private:
    struct IndexEntry
    {
        uint64_t offset; ///< absolute offset of the frame_len field
        uint32_t opCount;
        uint32_t threadId;
    };

    TraceFileReader() = default;

    /** Validate header, footer, CRC and frame chaining. */
    bool validate(std::string *error);

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    uint64_t indexOffset_ = 0; ///< where frames end / the index begins
    bool mmapped_ = false;
    std::vector<uint8_t> buffer_; ///< read() fallback storage
    std::vector<IndexEntry> index_;
};

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_READER_HH
