#include "trace/trace_io.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pmtest
{

namespace
{

template <typename T>
void
put(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
void
putBuf(std::string *buf, T value)
{
    buf->append(reinterpret_cast<const char *>(&value), sizeof(value));
}

/** Bounds-checked cursor over an in-memory body slice. */
class BodyCursor
{
  public:
    BodyCursor(const uint8_t *data, size_t len) : data_(data), len_(len) {}

    template <typename T>
    bool
    read(T *value)
    {
        if (len_ - pos_ < sizeof(T))
            return false;
        std::memcpy(value, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

    /** Advance past @p n raw bytes, exposing them via @p out. */
    bool
    readBytes(size_t n, const uint8_t **out)
    {
        if (len_ - pos_ < n)
            return false;
        *out = data_ + pos_;
        pos_ += n;
        return true;
    }

    bool atEnd() const { return pos_ == len_; }

    size_t remaining() const { return len_ - pos_; }

  private:
    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
};

/** Sanity cap on interned file-name length. */
constexpr uint32_t kMaxNameLen = 1u << 20;

/**
 * Slicing-by-8 over the raw (un-inverted) CRC state: table k advances
 * the CRC over a byte followed by k zero bytes, so eight lookups fold
 * eight input bytes per step. tables[0] is the classic bytewise
 * table, used for the tail.
 */
uint32_t
sliceBy8(uint32_t crc, const uint8_t *bytes, size_t len)
{
    using Table = std::array<uint32_t, 256>;
    static const std::array<Table, 8> tables = [] {
        std::array<Table, 8> t{};
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; i++)
            for (size_t k = 1; k < 8; k++)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        return t;
    }();
    const auto load32 = [](const uint8_t *p) {
        return uint32_t{p[0]} | uint32_t{p[1]} << 8 |
               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
    };

    for (; len >= 8; len -= 8, bytes += 8) {
        const uint32_t lo = load32(bytes) ^ crc;
        const uint32_t hi = load32(bytes + 4);
        crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
              tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
              tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
              tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    }
    for (; len > 0; len--, bytes++)
        crc = tables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)
/**
 * Carry-less-multiply folding (Gopal et al., Intel 2009) over the raw
 * CRC state, for @p len >= 64 and a multiple of 16. Four 128-bit
 * lanes fold 64 bytes a step, the lanes and any 16-byte blocks left
 * fold into one, and a Barrett reduction brings it to 32 bits. The
 * constants are x^k mod P(x) for the bit-reflected IEEE polynomial:
 * k1/k2 step 512 bits, k3/k4 128 bits, k5 the last 64 → 32 bits;
 * mu = floor(x^64 / P(x)).
 */
__attribute__((target("pclmul"))) inline __m128i
fold(__m128i x, __m128i k)
{
    // x * x^k, for a 128-bit lane x, as x.lo * k.lo ^ x.hi * k.hi.
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul"))) uint32_t
foldClmul(uint32_t crc, const uint8_t *p, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
    const auto load = [](const uint8_t *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };

    __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                            static_cast<int>(crc)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x0 = _mm_xor_si128(fold(x0, k1k2), load(p));
        x1 = _mm_xor_si128(fold(x1, k1k2), load(p + 16));
        x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 32));
        x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 48));
    }
    x0 = _mm_xor_si128(fold(x0, k3k4), x1);
    x0 = _mm_xor_si128(fold(x0, k3k4), x2);
    x0 = _mm_xor_si128(fold(x0, k3k4), x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = _mm_xor_si128(fold(x0, k3k4), load(p));

    // 128 → 64 bits (appending the 32 zero bits the CRC implies),
    // then 64 → 32 bits by Barrett reduction.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(k3k4, x0, 0x01));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                            k5, 0x00));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
    return static_cast<uint32_t>(
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, t), 4)));
}
#endif

} // namespace

uint32_t
crc32Portable(const void *data, size_t len, uint32_t crc)
{
    return ~sliceBy8(~crc, static_cast<const uint8_t *>(data), len);
}

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
#if defined(__x86_64__)
    static const bool clmul = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0;
    }();
    if (clmul && len >= 64) {
        const auto *bytes = static_cast<const uint8_t *>(data);
        const size_t folded = len & ~size_t{15};
        return ~sliceBy8(foldClmul(~crc, bytes, folded), bytes + folded,
                         len - folded);
    }
#endif
    return crc32Portable(data, len, crc);
}

void
encodeTraceBody(const Trace &trace, std::string *buf)
{
    putBuf(buf, trace.id());
    putBuf(buf, trace.threadId());
    putBuf(buf, static_cast<uint32_t>(trace.size()));

    // Intern file names for this trace.
    std::map<std::string, uint32_t> index;
    std::vector<std::string> strings;
    for (const auto &op : trace.ops()) {
        const std::string file = op.loc.valid() ? op.loc.file : "";
        if (index.emplace(file, strings.size()).second)
            strings.push_back(file);
    }
    putBuf(buf, static_cast<uint32_t>(strings.size()));
    for (const auto &s : strings) {
        putBuf(buf, static_cast<uint32_t>(s.size()));
        buf->append(s.data(), s.size());
    }

    for (const auto &op : trace.ops()) {
        const std::string file = op.loc.valid() ? op.loc.file : "";
        putBuf(buf, static_cast<uint8_t>(op.type));
        putBuf(buf, index.at(file));
        putBuf(buf, op.loc.line);
        putBuf(buf, op.addr);
        putBuf(buf, op.size);
        putBuf(buf, op.addrB);
        putBuf(buf, op.sizeB);
    }
}

bool
OpCursor::next(PmOp *out, size_t max, size_t *count)
{
    // The hot loop of offline checking: seven field reads per op,
    // with every bounds check hoisted into openTraceBody's one
    // exact-size check of the op array.
    const size_t n = std::min<size_t>(max, remaining_);
    const uint8_t *p = ops_;
    for (size_t i = 0; i < n; i++, p += kOpBytes) {
        uint32_t file_idx, line;
        PmOp op;
        std::memcpy(&file_idx, p + 1, sizeof(file_idx));
        std::memcpy(&line, p + 5, sizeof(line));
        std::memcpy(&op.addr, p + 9, sizeof(op.addr));
        std::memcpy(&op.size, p + 17, sizeof(op.size));
        std::memcpy(&op.addrB, p + 25, sizeof(op.addrB));
        std::memcpy(&op.sizeB, p + 33, sizeof(op.sizeB));
        op.type = static_cast<OpType>(*p);
        if (file_idx >= files_.size())
            return false;
        if (line != 0)
            op.loc = SourceLocation(files_[file_idx], line);
        out[i] = op;
    }
    ops_ = p;
    remaining_ -= n;
    *count = n;
    return true;
}

bool
OpCursor::decodeAll(Trace *out)
{
    Trace trace(id_, threadId_);
    std::vector<PmOp> &ops = trace.mutableOps();
    ops.resize(remaining_);
    size_t count;
    if (!next(ops.data(), ops.size(), &count))
        return false;
    *out = std::move(trace);
    return true;
}

bool
openTraceBody(const uint8_t *data, size_t len, OpCursor *out,
              std::deque<std::string> *arena)
{
    BodyCursor cursor(data, len);
    uint32_t string_count;
    if (!cursor.read(&out->id_) || !cursor.read(&out->threadId_) ||
        !cursor.read(&out->opCount_) || !cursor.read(&string_count)) {
        return false;
    }

    // Each string costs at least its 4-byte length field, so a count
    // the remaining bytes cannot hold is corrupt — reject it before
    // it sizes an allocation.
    if (string_count > cursor.remaining() / 4)
        return false;
    out->files_.clear();
    out->files_.reserve(string_count);
    for (uint32_t s = 0; s < string_count; s++) {
        uint32_t name_len;
        const uint8_t *bytes;
        if (!cursor.read(&name_len) || name_len > kMaxNameLen ||
            !cursor.readBytes(name_len, &bytes)) {
            return false;
        }
        arena->emplace_back(reinterpret_cast<const char *>(bytes),
                            name_len);
        out->files_.push_back(arena->back().c_str());
    }

    // Ops are fixed-width records, so one exact-size check covers
    // the whole array — it also rejects trailing junk in the frame —
    // and next() can read without further bounds checks.
    const uint64_t op_bytes = uint64_t{out->opCount_} * OpCursor::kOpBytes;
    if (cursor.remaining() != op_bytes ||
        !cursor.readBytes(static_cast<size_t>(op_bytes), &out->ops_)) {
        return false;
    }
    out->remaining_ = out->opCount_;
    return true;
}

size_t
saveTraces(std::ostream &out, const std::vector<Trace> &traces)
{
    const auto start = out.tellp();
    put(out, TraceWire::kMagic);
    put(out, TraceWire::kVersion);
    put(out, static_cast<uint32_t>(traces.size()));

    // Length-framed bodies, then the index footer. Offsets are
    // relative to the start of this blob, so a file that begins with
    // the header can be mapped and indexed by TraceFileReader.
    struct Entry
    {
        uint64_t offset;
        uint32_t opCount;
        uint32_t threadId;
    };
    std::vector<Entry> index;
    index.reserve(traces.size());
    uint64_t offset = TraceWire::kHeaderBytes;
    std::string body;
    for (const auto &trace : traces) {
        body.clear();
        encodeTraceBody(trace, &body);
        index.push_back({offset, static_cast<uint32_t>(trace.size()),
                         trace.threadId()});
        put(out, static_cast<uint64_t>(body.size()));
        out.write(body.data(),
                  static_cast<std::streamsize>(body.size()));
        offset += sizeof(uint64_t) + body.size();
    }

    // Serialize the index once so the CRC covers exactly the bytes
    // written (and the bytes the reader will checksum).
    std::string index_bytes;
    index_bytes.reserve(index.size() * TraceWire::kIndexEntryBytes);
    for (const auto &e : index) {
        putBuf(&index_bytes, e.offset);
        putBuf(&index_bytes, e.opCount);
        putBuf(&index_bytes, e.threadId);
    }
    out.write(index_bytes.data(),
              static_cast<std::streamsize>(index_bytes.size()));
    put(out, offset); // index_offset
    put(out, crc32(index_bytes.data(), index_bytes.size()));
    put(out, static_cast<uint32_t>(traces.size()));
    put(out, TraceWire::kFooterMagic);
    return static_cast<size_t>(out.tellp() - start);
}

bool
saveTracesToFile(const std::string &path,
                 const std::vector<Trace> &traces)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    saveTraces(out, traces);
    return out.good();
}

} // namespace pmtest
