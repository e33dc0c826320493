/**
 * @file
 * Trace serialization: save recorded traces to a compact binary
 * file; TraceFileReader (trace_reader.hh) loads them back. This
 * enables the record-once/check-offline workflow — capture a
 * production run's PM operations with tracking enabled, then replay
 * the traces through the checking engine (or a baseline tool)
 * without re-running the program.
 *
 * Wire format v2 (little-endian, versioned):
 *   file   := magic u64, version u32 (=2), trace_count u32,
 *             frame*, index, tail
 *   frame  := frame_len u64, body[frame_len]
 *   index  := trace_count x { offset u64, op_count u32, thread_id u32 }
 *             (offset = absolute position of the frame_len field)
 *   tail   := index_offset u64, index_crc32 u32, trace_count u32,
 *             footer_magic u64
 *   body   := id u64, thread_id u32, op_count u32, string_table, op*
 *   string_table := count u32, (len u32, bytes)*   (file names)
 *   op     := type u8, file_idx u32, line u32, addr u64, size u64,
 *             addrB u64, sizeB u64
 *
 * Each trace is independently locatable: the byte-length framing
 * turns one trace into a self-contained decode unit, and the index
 * footer (validated by magic + CRC32 + exact size accounting) lets
 * `TraceFileReader` map the file and decode traces in parallel
 * without scanning. The v1 format (no framing, no index) is no
 * longer read: such files fail closed and must be re-recorded.
 *
 * File-name strings are interned per trace; decoded traces own their
 * file names via a shared arena so SourceLocation's const char*
 * contract holds.
 */

#ifndef PMTEST_TRACE_TRACE_IO_HH
#define PMTEST_TRACE_TRACE_IO_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace pmtest
{

/** Wire-format constants shared by the writer and the indexed reader. */
struct TraceWire
{
    /** Leading file magic ("PMTESTT"). */
    static constexpr uint64_t kMagic = 0x504d5445535454ULL;
    /** The one format version written and read (framed + indexed). */
    static constexpr uint32_t kVersion = 2;
    /** v2 footer magic ("PMT2IDX"). */
    static constexpr uint64_t kFooterMagic = 0x58444932544d50ULL;
    /** magic u64 + version u32 + trace_count u32. */
    static constexpr size_t kHeaderBytes = 16;
    /** offset u64 + op_count u32 + thread_id u32. */
    static constexpr size_t kIndexEntryBytes = 16;
    /** index_offset u64 + crc u32 + trace_count u32 + magic u64. */
    static constexpr size_t kFooterBytes = 24;
};

/**
 * CRC32 (IEEE 802.3, reflected) of a byte range. Pass the CRC of the
 * preceding bytes as @p crc to continue it: crc32(b, crc32(a)) is the
 * CRC of a followed by b.
 */
uint32_t crc32(const void *data, size_t len, uint32_t crc = 0);

/**
 * Encode one trace's body (the framed payload, without the length
 * prefix) and append it to @p buf. Shared by saveTraces and tests
 * that hand-build v2 files.
 */
void encodeTraceBody(const Trace &trace, std::string *buf);

/**
 * One trace body opened for streaming: openTraceBody decodes the
 * header and string table and checks the op array's exact size up
 * front, then next() decodes the fixed-width op records a window at
 * a time. The one op decode loop: decodeAll() runs it once over the
 * whole array, windowed checking once per window.
 */
class OpCursor
{
  public:
    /** Bytes of one op record on the wire. */
    static constexpr size_t kOpBytes = 1 + 4 + 4 + 8 + 8 + 8 + 8;

    /** Trace id from the body header. */
    uint64_t traceId() const { return id_; }

    /** Producing thread id from the body header. */
    uint32_t threadId() const { return threadId_; }

    /** Op count from the body header. */
    uint32_t opCount() const { return opCount_; }

    /** Ops not yet decoded. */
    size_t remaining() const { return remaining_; }

    /**
     * Decode the next min(@p max, remaining()) ops into @p out and
     * set *@p count to that number.
     * @return false when an op names a file index outside the string
     *         table (the cursor is then unusable).
     */
    bool next(PmOp *out, size_t max, size_t *count);

    /**
     * Decode every remaining op into a fresh trace with this body's
     * identity, replacing *@p out (untouched on failure).
     */
    bool decodeAll(Trace *out);

  private:
    friend bool openTraceBody(const uint8_t *data, size_t len,
                              OpCursor *out,
                              std::deque<std::string> *arena);

    const uint8_t *ops_ = nullptr; ///< next undecoded op record
    size_t remaining_ = 0;
    uint64_t id_ = 0;
    uint32_t threadId_ = 0;
    uint32_t opCount_ = 0;
    std::vector<const char *> files_; ///< string table, into the arena
};

/**
 * Open one trace body for streaming, with strict bounds checking:
 * never reads past data+len, and fails (returning false) on a
 * malformed header or string table, or an op array whose size is
 * not exactly the header's op count. File-name strings are appended
 * to @p arena (a deque: stable addresses under growth), and the ops
 * next() decodes point into it.
 */
bool openTraceBody(const uint8_t *data, size_t len, OpCursor *out,
                   std::deque<std::string> *arena);

/** Serialize traces to a binary stream. @return bytes written. */
size_t saveTraces(std::ostream &out, const std::vector<Trace> &traces);

/** Convenience: save to a file path. */
bool saveTracesToFile(const std::string &path,
                      const std::vector<Trace> &traces);

} // namespace pmtest

#endif // PMTEST_TRACE_TRACE_IO_HH
