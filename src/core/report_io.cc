#include "core/report_io.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "trace/trace_io.hh"
#include "util/logging.hh"

namespace pmtest::core
{

namespace
{

constexpr size_t kMetaBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kFindingBytes = 4 + 4 + 8 + 16 + 16 + 16 + 16 + 40 + 8;
static_assert(kFindingBytes == 128);

constexpr uint8_t kHintWithFlush = 1u << 0;
constexpr uint8_t kHintVerified = 1u << 1;

constexpr uint8_t kMaxSeverity =
    static_cast<uint8_t>(Severity::Fail);
constexpr uint8_t kMaxFindingKind =
    static_cast<uint8_t>(FindingKind::Malformed);
constexpr uint8_t kMaxCause = static_cast<uint8_t>(kLastCause);
constexpr uint8_t kMaxFixAction =
    static_cast<uint8_t>(FixAction::DeleteTxAdd);
constexpr uint8_t kMaxOpType = static_cast<uint8_t>(OpType::Include);
constexpr uint32_t kMaxModel = static_cast<uint32_t>(ModelKind::Arm);

static_assert(std::endian::native == std::endian::little,
              "the encoder stores fields with memcpy; port it to a "
              "big-endian host with byte swaps");

/** Whether a finding of @p cause names an op in its op byte. */
bool
namesOp(Cause cause)
{
    return cause == Cause::OpNotInX86 || cause == Cause::OpNotInHops ||
           cause == Cause::OpNotInArm;
}

/** Whether range B's slot holds the write location instead. */
bool
carriesWriteLoc(Cause cause)
{
    return cause == Cause::TxUpdateNotPersisted;
}

/**
 * Unchecked little-endian writer into a buffer the caller sized
 * exactly (each FrameWriter piece grows its output by its size first).
 */
struct Writer
{
    char *p;

    template <typename T>
    void
    put(T v)
    {
        std::memcpy(p, &v, sizeof v);
        p += sizeof v;
    }

    void
    bytes(std::string_view s)
    {
        std::memcpy(p, s.data(), s.size());
        p += s.size();
    }
};

/** Bounds-checked little-endian reader over the report body. */
struct Reader
{
    const uint8_t *data;
    size_t len;
    size_t pos = 0;

    size_t remaining() const { return len - pos; }

    template <typename T>
    bool
    get(T *v)
    {
        if (remaining() < sizeof(T))
            return false;
        std::memcpy(v, data + pos, sizeof(T));
        pos += sizeof(T);
        return true;
    }
};

/**
 * Interns source-file names, assigning dense table indices in
 * first-use order. Consecutive findings usually share one file
 * pointer, so the last lookup is remembered.
 */
struct StringTable
{
    std::vector<std::string_view> entries;
    std::unordered_map<std::string_view, uint32_t> index;
    const char *lastFile = nullptr;
    uint32_t lastIndex = 0;

    uint32_t
    internFile(const char *file)
    {
        if (!file || file[0] == '\0')
            return ReportWire::kNoString;
        if (file == lastFile)
            return lastIndex;
        const auto [it, inserted] = index.try_emplace(
            file, static_cast<uint32_t>(entries.size()));
        if (inserted)
            entries.push_back(it->first);
        lastFile = file;
        lastIndex = it->second;
        return lastIndex;
    }
};

bool
failDecode(std::string *error, const char *reason)
{
    if (error)
        *error = reason;
    return false;
}

/**
 * Writes one report frame in order, in pieces: the head (header,
 * meta, string table, finding count), runs of finding records, then
 * the footer, CRC-ing the body as it goes. encodeReport writes every
 * piece into one buffer; saveReportFile streams bounded runs of
 * records, so a bug-dense report is never held as one large string.
 */
class FrameWriter
{
  public:
    FrameWriter(const Report &report, const ReportMeta &meta)
        : findings_(report.findings()), meta_(meta)
    {
        // Intern every source-file name up front so the string table
        // precedes the findings in the body.
        fileIdx_.reserve(findings_.size());
        for (const Finding &f : findings_) {
            fileIdx_.push_back(table_.internFile(f.loc.file));
            if (carriesWriteLoc(f.cause))
                writeFileIdx_.push_back(
                    table_.internFile(f.evidence.writeLoc.file));
        }
        for (const std::string_view name : table_.entries)
            stringBytes_ += 4 + name.size();
    }

    /** Findings whose records are still to be written. */
    size_t remaining() const { return findings_.size() - next_; }

    /** Append the header, meta, string table and finding count. */
    void
    head(std::string *out)
    {
        const size_t body_len = kMetaBytes + 4 + stringBytes_ + 8 +
                                findings_.size() * kFindingBytes;
        Writer w = grow(out, ReportWire::kHeaderBytes);
        w.put(ReportWire::kMagic);
        w.put(ReportWire::kVersion);
        w.put(uint32_t{0}); // reserved
        w.put(uint64_t{body_len});

        const size_t n = kMetaBytes + 4 + stringBytes_ + 8;
        w = grow(out, n);
        char *const start = w.p;
        w.put(meta_.workerIndex);
        w.put(meta_.workerCount);
        w.put(meta_.traceCount);
        w.put(meta_.totalOps);
        w.put(meta_.sourceCount);
        w.put(static_cast<uint32_t>(meta_.model));
        w.put(uint32_t{0}); // reserved
        w.put(static_cast<uint32_t>(table_.entries.size()));
        for (const std::string_view name : table_.entries) {
            w.put(static_cast<uint32_t>(name.size()));
            w.bytes(name);
        }
        w.put(uint64_t{findings_.size()});
        sealBody(start, w.p, n);
    }

    /** Append the next @p count finding records. */
    void
    records(size_t count, std::string *out)
    {
        const size_t n = count * kFindingBytes;
        Writer w = grow(out, n);
        char *const start = w.p;
        for (const size_t end = next_ + count; next_ < end; next_++)
            putFinding(w, findings_[next_], fileIdx_[next_]);
        sealBody(start, w.p, n);
    }

    /** Append the body CRC and the footer magic. */
    void
    tail(std::string *out)
    {
        if (next_ != findings_.size())
            panic("report frame closed before its last record");
        Writer w = grow(out, ReportWire::kFooterBytes);
        w.put(crc_);
        w.put(ReportWire::kFooterMagic);
    }

  private:
    /** Grow @p out by @p n bytes, returning a writer positioned there. */
    static Writer
    grow(std::string *out, size_t n)
    {
        const size_t at = out->size();
        out->resize(at + n);
        return Writer{out->data() + at};
    }

    /** Check the piece [start, end) is @p n bytes; fold it into the CRC. */
    void
    sealBody(const char *start, const char *end, size_t n)
    {
        if (static_cast<size_t>(end - start) != n)
            panic("report encoder size accounting is wrong");
        crc_ = crc32(start, n, crc_);
    }

    void
    putFinding(Writer &w, const Finding &f, uint32_t file_idx)
    {
        const Evidence &e = f.evidence;
        w.put(static_cast<uint8_t>(f.severity));
        w.put(static_cast<uint8_t>(f.kind));
        w.put(static_cast<uint8_t>(f.cause));
        w.put(static_cast<uint8_t>(namesOp(f.cause) ? f.op
                                                    : OpType::Write));
        w.put(f.fileId);
        w.put(file_idx);
        w.put(f.loc.line);
        w.put(f.traceId);
        w.put(uint64_t{f.opIndex});
        w.put(e.rangeA.addr);
        w.put(e.rangeA.size);
        if (carriesWriteLoc(f.cause)) {
            w.put(writeFileIdx_[nextWriteFile_++]);
            w.put(uint32_t{0}); // reserved
            w.put(e.writeLoc.line);
            w.put(uint32_t{0}); // reserved
        } else {
            w.put(e.rangeB.addr);
            w.put(e.rangeB.size);
        }
        w.put(e.epochA);
        w.put(e.epochB);
        w.put(f.hint.addr);
        w.put(f.hint.size);
        w.put(f.hint.addrB);
        w.put(f.hint.sizeB);
        w.put(f.hint.opIndex);
        w.put(f.hint.count);
        w.put(static_cast<uint8_t>(f.hint.action));
        w.put(static_cast<uint8_t>(f.hint.flushOp));
        w.put(static_cast<uint8_t>(f.hint.fenceOp));
        w.put(static_cast<uint8_t>((f.hint.withFlush ? kHintWithFlush : 0) |
                                   (f.hint.verified ? kHintVerified : 0)));
    }

    const std::vector<Finding> &findings_;
    const ReportMeta &meta_;
    StringTable table_;
    std::vector<uint32_t> fileIdx_;      ///< per finding
    std::vector<uint32_t> writeFileIdx_; ///< per write-location finding
    size_t stringBytes_ = 0;
    size_t next_ = 0;          ///< next finding record to write
    size_t nextWriteFile_ = 0; ///< next writeFileIdx_ entry
    uint32_t crc_ = 0;         ///< CRC of the body written so far
};

/** Records per streamed write: 64 KiB. */
constexpr size_t kRecordsPerWrite = 512;

} // namespace

void
encodeReport(const Report &report, const ReportMeta &meta,
             std::string *out)
{
    FrameWriter frame(report, meta);
    frame.head(out);
    frame.records(frame.remaining(), out);
    frame.tail(out);
}

bool
decodeReport(const void *data, size_t len, Report *report,
             ReportMeta *meta, std::string *error)
{
    Reader r{static_cast<const uint8_t *>(data), len};
    if (len < ReportWire::kHeaderBytes + ReportWire::kFooterBytes)
        return failDecode(error, "report truncated (header)");

    uint64_t magic = 0, body_len = 0;
    uint32_t version = 0, reserved = 0;
    r.get(&magic);
    r.get(&version);
    r.get(&reserved);
    r.get(&body_len);
    if (magic != ReportWire::kMagic)
        return failDecode(error, "not a pmtest report (bad magic)");
    if (version != ReportWire::kVersion)
        return failDecode(error, "unsupported report version");
    // The header sits outside the body CRC; the reserved word must be
    // zero so corruption there cannot pass unnoticed.
    if (reserved != 0)
        return failDecode(error, "bad report header");
    // Exact accounting: the body must fill everything between the
    // header and the footer — no truncation, no trailing junk.
    if (body_len !=
        len - ReportWire::kHeaderBytes - ReportWire::kFooterBytes)
        return failDecode(error, "report length mismatch");

    const uint8_t *body = r.data + r.pos;
    Reader footer{r.data, len, ReportWire::kHeaderBytes + body_len};
    uint32_t stored_crc = 0;
    uint64_t footer_magic = 0;
    footer.get(&stored_crc);
    footer.get(&footer_magic);
    if (footer_magic != ReportWire::kFooterMagic)
        return failDecode(error, "bad report footer");
    if (stored_crc != crc32(body, body_len))
        return failDecode(error, "report CRC mismatch");

    Reader b{body, static_cast<size_t>(body_len)};
    ReportMeta parsed_meta;
    uint32_t model = 0, meta_reserved = 0;
    if (!b.get(&parsed_meta.workerIndex) ||
        !b.get(&parsed_meta.workerCount) ||
        !b.get(&parsed_meta.traceCount) ||
        !b.get(&parsed_meta.totalOps) ||
        !b.get(&parsed_meta.sourceCount) || !b.get(&model) ||
        !b.get(&meta_reserved))
        return failDecode(error, "report truncated (meta)");
    if (model > kMaxModel)
        return failDecode(error, "bad model in report");
    if (meta_reserved != 0)
        return failDecode(error, "nonzero reserved bytes in report");
    parsed_meta.model = static_cast<ModelKind>(model);

    uint32_t string_count = 0;
    if (!b.get(&string_count))
        return failDecode(error, "report truncated (string table)");
    // Each entry carries at least its length field; reject counts the
    // remaining bytes cannot possibly hold before allocating.
    if (string_count > b.remaining() / 4)
        return failDecode(error, "bad string count in report");
    auto arena = std::make_shared<std::deque<std::string>>();
    for (uint32_t i = 0; i < string_count; i++) {
        uint32_t slen = 0;
        if (!b.get(&slen) || slen > b.remaining())
            return failDecode(error,
                              "report truncated (string table)");
        arena->emplace_back(
            reinterpret_cast<const char *>(b.data + b.pos), slen);
        b.pos += slen;
    }
    const auto file_name = [&](uint32_t idx, const char **out) {
        if (idx == ReportWire::kNoString) {
            *out = "";
            return true;
        }
        if (idx >= arena->size())
            return false;
        *out = (*arena)[idx].c_str();
        return true;
    };

    uint64_t finding_count = 0;
    if (!b.get(&finding_count))
        return failDecode(error, "report truncated (findings)");
    if (finding_count > b.remaining() / kFindingBytes)
        return failDecode(error, "bad finding count in report");

    Report parsed;
    parsed.mutableFindings().reserve(finding_count);
    for (uint64_t i = 0; i < finding_count; i++) {
        uint8_t severity = 0, kind = 0, cause = 0, op = 0;
        uint8_t action = 0, flush_op = 0, fence_op = 0, flags = 0;
        uint32_t file_name_idx = 0;
        uint64_t op_index = 0, b_addr = 0, b_size = 0;
        Finding f;
        Evidence &e = f.evidence;
        if (!b.get(&severity) || !b.get(&kind) || !b.get(&cause) ||
            !b.get(&op) || !b.get(&f.fileId) || !b.get(&file_name_idx) ||
            !b.get(&f.loc.line) || !b.get(&f.traceId) ||
            !b.get(&op_index) || !b.get(&e.rangeA.addr) ||
            !b.get(&e.rangeA.size) || !b.get(&b_addr) ||
            !b.get(&b_size) || !b.get(&e.epochA) || !b.get(&e.epochB) ||
            !b.get(&f.hint.addr) || !b.get(&f.hint.size) ||
            !b.get(&f.hint.addrB) || !b.get(&f.hint.sizeB) ||
            !b.get(&f.hint.opIndex) || !b.get(&f.hint.count) ||
            !b.get(&action) || !b.get(&flush_op) ||
            !b.get(&fence_op) || !b.get(&flags))
            return failDecode(error, "report truncated (findings)");
        if (severity > kMaxSeverity || kind > kMaxFindingKind ||
            cause > kMaxCause || op > kMaxOpType ||
            action > kMaxFixAction || flush_op > kMaxOpType ||
            fence_op > kMaxOpType)
            return failDecode(error, "bad enum value in report");
        f.severity = static_cast<Severity>(severity);
        f.kind = static_cast<FindingKind>(kind);
        f.cause = static_cast<Cause>(cause);
        if (causeKind(f.cause) != f.kind)
            return failDecode(error, "finding cause does not match "
                                     "its kind in report");
        if (!file_name(file_name_idx, &f.loc.file))
            return failDecode(error, "bad string index in report");
        // Fields a cause does not carry are zero on the wire: nothing
        // outside the record's meaning can vary between encodings.
        if ((op != 0 && !namesOp(f.cause)) ||
            (flags & ~(kHintWithFlush | kHintVerified)) != 0)
            return failDecode(error, "nonzero reserved bytes in report");
        if (carriesWriteLoc(f.cause)) {
            // Range B's slot: write file index u32, reserved u32,
            // write line u32, reserved u32.
            if ((b_addr >> 32) != 0 || (b_size >> 32) != 0)
                return failDecode(error,
                                  "nonzero reserved bytes in report");
            if (!file_name(static_cast<uint32_t>(b_addr),
                           &e.writeLoc.file))
                return failDecode(error, "bad string index in report");
            e.writeLoc.line = static_cast<uint32_t>(b_size);
        } else {
            e.rangeB = AddrRange(b_addr, b_size);
        }
        f.op = static_cast<OpType>(op);
        f.opIndex = op_index;
        f.hint.action = static_cast<FixAction>(action);
        f.hint.flushOp = static_cast<OpType>(flush_op);
        f.hint.fenceOp = static_cast<OpType>(fence_op);
        f.hint.withFlush = (flags & kHintWithFlush) != 0;
        f.hint.verified = (flags & kHintVerified) != 0;
        parsed.add(f);
    }
    if (b.remaining() != 0)
        return failDecode(error, "trailing bytes in report body");

    // Full success: publish. Findings' file-name pointers reference
    // the deque arena, which the report co-owns from here on.
    parsed.holdArena(std::move(arena));
    *report = std::move(parsed);
    if (meta)
        *meta = parsed_meta;
    return true;
}

bool
saveReportFile(const std::string &path, const Report &report,
               const ReportMeta &meta, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (error)
            *error = "cannot write " + path;
        return false;
    }
    // Stream the frame a bounded run of records at a time: the bytes
    // equal encodeReport's, without holding them all at once.
    FrameWriter frame(report, meta);
    std::string chunk;
    const auto flush = [&] {
        const bool wrote =
            std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
        chunk.clear();
        return wrote;
    };
    frame.head(&chunk);
    bool ok = flush();
    while (ok && frame.remaining() > 0) {
        frame.records(std::min(frame.remaining(), kRecordsPerWrite),
                      &chunk);
        ok = flush();
    }
    if (ok) {
        frame.tail(&chunk);
        ok = flush();
    }
    const bool closed = std::fclose(f) == 0;
    if ((!ok || !closed) && error)
        *error = "cannot write " + path;
    return ok && closed;
}

bool
loadReportFile(const std::string &path, Report *report,
               ReportMeta *meta, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = path + ": cannot open";
        return false;
    }
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    const bool read_ok = !std::ferror(f);
    std::fclose(f);
    if (!read_ok) {
        if (error)
            *error = path + ": read error";
        return false;
    }
    std::string reason;
    if (!decodeReport(bytes.data(), bytes.size(), report, meta,
                      &reason)) {
        if (error)
            *error = path + ": " + reason;
        return false;
    }
    return true;
}

} // namespace pmtest::core
