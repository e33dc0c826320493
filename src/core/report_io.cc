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
constexpr size_t kFindingBytes = 4 + 16 + 16 + 40 + 4 + 4;

constexpr uint8_t kHintWithFlush = 1u << 0;
constexpr uint8_t kHintVerified = 1u << 1;

constexpr uint8_t kMaxSeverity =
    static_cast<uint8_t>(Severity::Fail);
constexpr uint8_t kMaxFindingKind =
    static_cast<uint8_t>(FindingKind::Malformed);
constexpr uint8_t kMaxFixAction =
    static_cast<uint8_t>(FixAction::DeleteTxAdd);
constexpr uint8_t kMaxOpType = static_cast<uint8_t>(OpType::Include);
constexpr uint32_t kMaxModel = static_cast<uint32_t>(ModelKind::Arm);

static_assert(std::endian::native == std::endian::little,
              "the encoder stores fields with memcpy; port it to a "
              "big-endian host with byte swaps");

/**
 * Unchecked little-endian writer into a buffer the caller sized
 * exactly (encodeReport computes the frame size up front).
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

    bool
    u8(uint8_t *v)
    {
        if (remaining() < 1)
            return false;
        *v = data[pos++];
        return true;
    }

    bool
    u16(uint16_t *v)
    {
        if (remaining() < 2)
            return false;
        *v = 0;
        for (int i = 0; i < 2; i++)
            *v |= static_cast<uint16_t>(data[pos + i]) << (8 * i);
        pos += 2;
        return true;
    }

    bool
    u32(uint32_t *v)
    {
        if (remaining() < 4)
            return false;
        *v = 0;
        for (int i = 0; i < 4; i++)
            *v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return true;
    }

    bool
    u64(uint64_t *v)
    {
        if (remaining() < 8)
            return false;
        *v = 0;
        for (int i = 0; i < 8; i++)
            *v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return true;
    }
};

/** Interns strings, assigning dense table indices in first-use order. */
struct StringTable
{
    std::vector<std::string_view> entries;
    std::unordered_map<std::string_view, uint32_t> index;

    uint32_t
    intern(std::string_view s)
    {
        const auto [it, inserted] =
            index.try_emplace(s, static_cast<uint32_t>(entries.size()));
        if (inserted)
            entries.push_back(s);
        return it->second;
    }
};

bool
failDecode(std::string *error, const char *reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

void
encodeReport(const Report &report, const ReportMeta &meta,
             std::string *out)
{
    const std::vector<Finding> &findings = report.findings();

    // Intern every message and source-file name up front so the
    // string table precedes the findings in the body.
    StringTable table;
    table.index.reserve(findings.size());
    std::vector<uint32_t> msg_idx, file_idx;
    msg_idx.reserve(findings.size());
    file_idx.reserve(findings.size());
    for (const Finding &f : findings) {
        msg_idx.push_back(f.message.empty() ? ReportWire::kNoString
                                            : table.intern(f.message));
        const bool has_file = f.loc.file && f.loc.file[0] != '\0';
        file_idx.push_back(has_file ? table.intern(f.loc.file)
                                    : ReportWire::kNoString);
    }

    // The exact frame size, so every field is written once, in place.
    size_t string_bytes = 0;
    for (const std::string_view s : table.entries)
        string_bytes += 4 + s.size();
    const size_t body_len =
        kMetaBytes + 4 + string_bytes + 8 + findings.size() * kFindingBytes;
    const size_t start = out->size();
    out->resize(start + ReportWire::kHeaderBytes + body_len +
                ReportWire::kFooterBytes);
    Writer w{out->data() + start};

    w.put(ReportWire::kMagic);
    w.put(ReportWire::kVersion);
    w.put(uint32_t{0}); // reserved
    w.put(uint64_t{body_len});
    char *const body = w.p;

    w.put(meta.workerIndex);
    w.put(meta.workerCount);
    w.put(meta.traceCount);
    w.put(meta.totalOps);
    w.put(meta.sourceCount);
    w.put(static_cast<uint32_t>(meta.model));
    w.put(uint32_t{0}); // reserved

    w.put(static_cast<uint32_t>(table.entries.size()));
    for (const std::string_view s : table.entries) {
        w.put(static_cast<uint32_t>(s.size()));
        w.bytes(s);
    }

    w.put(uint64_t{findings.size()});
    for (size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        w.put(static_cast<uint8_t>(f.severity));
        w.put(static_cast<uint8_t>(f.kind));
        w.put(static_cast<uint8_t>(f.hint.action));
        w.put(static_cast<uint8_t>((f.hint.withFlush ? kHintWithFlush : 0) |
                                   (f.hint.verified ? kHintVerified : 0)));
        w.put(msg_idx[i]);
        w.put(file_idx[i]);
        w.put(f.loc.line);
        w.put(f.fileId);
        w.put(f.traceId);
        w.put(uint64_t{f.opIndex});
        w.put(f.hint.addr);
        w.put(f.hint.size);
        w.put(f.hint.addrB);
        w.put(f.hint.sizeB);
        w.put(f.hint.opIndex);
        w.put(static_cast<uint8_t>(f.hint.flushOp));
        w.put(static_cast<uint8_t>(f.hint.fenceOp));
        w.put(uint16_t{0}); // reserved
        w.put(f.hint.count);
    }

    if (w.p != body + body_len)
        panic("report encoder size accounting is wrong");
    w.put(crc32(body, body_len));
    w.put(ReportWire::kFooterMagic);
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
    r.u64(&magic);
    r.u32(&version);
    r.u32(&reserved);
    r.u64(&body_len);
    if (magic != ReportWire::kMagic)
        return failDecode(error, "not a pmtest report (bad magic)");
    if (version != ReportWire::kVersion)
        return failDecode(error, "unsupported report version");
    // The header sits outside the body CRC; within v1 the reserved
    // word must be zero so corruption there cannot pass unnoticed.
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
    footer.u32(&stored_crc);
    footer.u64(&footer_magic);
    if (footer_magic != ReportWire::kFooterMagic)
        return failDecode(error, "bad report footer");
    if (stored_crc != crc32(body, body_len))
        return failDecode(error, "report CRC mismatch");

    Reader b{body, static_cast<size_t>(body_len)};
    ReportMeta parsed_meta;
    uint32_t model = 0, meta_reserved = 0;
    if (!b.u32(&parsed_meta.workerIndex) ||
        !b.u32(&parsed_meta.workerCount) ||
        !b.u64(&parsed_meta.traceCount) ||
        !b.u64(&parsed_meta.totalOps) ||
        !b.u64(&parsed_meta.sourceCount) || !b.u32(&model) ||
        !b.u32(&meta_reserved))
        return failDecode(error, "report truncated (meta)");
    if (model > kMaxModel)
        return failDecode(error, "bad model in report");
    parsed_meta.model = static_cast<ModelKind>(model);

    uint32_t string_count = 0;
    if (!b.u32(&string_count))
        return failDecode(error, "report truncated (string table)");
    // Each entry carries at least its length field; reject counts the
    // remaining bytes cannot possibly hold before allocating.
    if (string_count > b.remaining() / 4)
        return failDecode(error, "bad string count in report");
    auto arena = std::make_shared<std::deque<std::string>>();
    for (uint32_t i = 0; i < string_count; i++) {
        uint32_t slen = 0;
        if (!b.u32(&slen) || slen > b.remaining())
            return failDecode(error,
                              "report truncated (string table)");
        arena->emplace_back(
            reinterpret_cast<const char *>(b.data + b.pos), slen);
        b.pos += slen;
    }

    uint64_t finding_count = 0;
    if (!b.u64(&finding_count))
        return failDecode(error, "report truncated (findings)");
    if (finding_count > b.remaining() / kFindingBytes)
        return failDecode(error, "bad finding count in report");

    Report parsed;
    for (uint64_t i = 0; i < finding_count; i++) {
        uint8_t severity = 0, kind = 0, action = 0, flags = 0;
        uint32_t msg_idx = 0, file_name_idx = 0, line = 0,
                 file_id = 0;
        uint64_t trace_id = 0, op_index = 0, hint_op_index = 0;
        uint8_t flush_op = 0, fence_op = 0;
        uint16_t finding_reserved = 0;
        Finding f;
        if (!b.u8(&severity) || !b.u8(&kind) || !b.u8(&action) ||
            !b.u8(&flags) || !b.u32(&msg_idx) ||
            !b.u32(&file_name_idx) || !b.u32(&line) ||
            !b.u32(&file_id) || !b.u64(&trace_id) ||
            !b.u64(&op_index) || !b.u64(&f.hint.addr) ||
            !b.u64(&f.hint.size) || !b.u64(&f.hint.addrB) ||
            !b.u64(&f.hint.sizeB) || !b.u64(&hint_op_index) ||
            !b.u8(&flush_op) || !b.u8(&fence_op) ||
            !b.u16(&finding_reserved) || !b.u32(&f.hint.count))
            return failDecode(error, "report truncated (findings)");
        if (severity > kMaxSeverity || kind > kMaxFindingKind ||
            action > kMaxFixAction || flush_op > kMaxOpType ||
            fence_op > kMaxOpType)
            return failDecode(error, "bad enum value in report");
        if (msg_idx != ReportWire::kNoString &&
            msg_idx >= arena->size())
            return failDecode(error, "bad string index in report");
        if (file_name_idx != ReportWire::kNoString &&
            file_name_idx >= arena->size())
            return failDecode(error, "bad string index in report");
        f.severity = static_cast<Severity>(severity);
        f.kind = static_cast<FindingKind>(kind);
        f.hint.action = static_cast<FixAction>(action);
        f.hint.withFlush = (flags & kHintWithFlush) != 0;
        f.hint.verified = (flags & kHintVerified) != 0;
        if (msg_idx != ReportWire::kNoString)
            f.message = (*arena)[msg_idx];
        f.loc.file = file_name_idx == ReportWire::kNoString
                         ? ""
                         : (*arena)[file_name_idx].c_str();
        f.loc.line = line;
        f.fileId = file_id;
        f.traceId = trace_id;
        f.opIndex = op_index;
        f.hint.opIndex = hint_op_index;
        f.hint.flushOp = static_cast<OpType>(flush_op);
        f.hint.fenceOp = static_cast<OpType>(fence_op);
        parsed.add(std::move(f));
    }
    if (b.remaining() != 0)
        return failDecode(error, "trailing bytes in report body");

    // Full success: publish. Findings' loc.file pointers reference
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
    std::string bytes;
    encodeReport(report, meta, &bytes);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (error)
            *error = "cannot write " + path;
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
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

void
mergeReports(std::vector<WorkerReport> parts, Report *merged,
             ReportMeta *meta)
{
    std::stable_sort(parts.begin(), parts.end(),
                     [](const WorkerReport &a, const WorkerReport &b) {
                         return a.meta.workerIndex <
                                b.meta.workerIndex;
                     });
    Report out;
    ReportMeta totals;
    totals.workerCount = static_cast<uint32_t>(parts.size());
    for (WorkerReport &part : parts) {
        out.merge(std::move(part.report));
        totals.traceCount += part.meta.traceCount;
        totals.totalOps += part.meta.totalOps;
        totals.sourceCount += part.meta.sourceCount;
        totals.model = part.meta.model;
    }
    out.canonicalize();
    *merged = std::move(out);
    if (meta)
        *meta = totals;
}

} // namespace pmtest::core
