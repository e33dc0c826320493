#include "trace/trace_io.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "trace/trace_reader.hh"

namespace pmtest
{
namespace
{

Trace
sampleTrace(uint64_t id)
{
    Trace t(id, 3);
    t.append(PmOp::write(0x100, 64, SourceLocation("a.cc", 10)));
    t.append(PmOp::clwb(0x100, 64, SourceLocation("a.cc", 11)));
    t.append(PmOp::sfence(SourceLocation("b.cc", 20)));
    t.append(PmOp::isOrderedBefore(0x100, 64, 0x200, 32,
                                   SourceLocation("a.cc", 12)));
    t.append(PmOp{OpType::TxAdd, 0x300, 16, 0, 0, {}}); // no loc
    return t;
}

/** Per-process scratch path, so parallel test runs do not collide. */
std::string
scratchPath()
{
    return "/tmp/pmtest_trace_io_test_" + std::to_string(getpid()) +
           ".bin";
}

/**
 * Write @p bytes to a scratch file and decode every trace through the
 * indexed reader. @return false when the reader rejects the file.
 */
bool
loadBytes(const std::string &bytes, std::vector<Trace> *out)
{
    const std::string path = scratchPath();
    {
        std::ofstream file(path, std::ios::binary);
        file.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    }
    auto reader = TraceFileReader::open(path);
    std::remove(path.c_str());
    if (!reader)
        return false;
    for (size_t i = 0; i < reader->traceCount(); i++) {
        DecodedTrace decoded;
        if (!reader->decode(i, &decoded))
            return false;
        out->push_back(std::move(decoded.trace));
    }
    return true;
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    std::vector<Trace> traces{sampleTrace(7), sampleTrace(8)};
    std::stringstream stream;
    const size_t bytes = saveTraces(stream, traces);
    EXPECT_GT(bytes, 0u);

    std::vector<Trace> loaded;
    ASSERT_TRUE(loadBytes(stream.str(), &loaded));
    ASSERT_EQ(loaded.size(), 2u);

    for (size_t t = 0; t < 2; t++) {
        const Trace &orig = traces[t];
        const Trace &got = loaded[t];
        EXPECT_EQ(got.id(), orig.id());
        EXPECT_EQ(got.threadId(), orig.threadId());
        ASSERT_EQ(got.size(), orig.size());
        for (size_t i = 0; i < orig.size(); i++) {
            const PmOp &a = orig.ops()[i];
            const PmOp &b = got.ops()[i];
            EXPECT_EQ(a.type, b.type) << "op " << i;
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.size, b.size);
            EXPECT_EQ(a.addrB, b.addrB);
            EXPECT_EQ(a.sizeB, b.sizeB);
            EXPECT_EQ(a.loc.valid(), b.loc.valid());
            if (a.loc.valid()) {
                EXPECT_EQ(a.loc.str(), b.loc.str()) << "op " << i;
            }
        }
    }
}

TEST(TraceIoTest, DefaultFormatIsIndexedV2)
{
    std::stringstream stream;
    saveTraces(stream, {sampleTrace(1)});
    const std::string bytes = stream.str();
    ASSERT_GT(bytes.size(), TraceWire::kFooterBytes);
    uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(uint64_t),
                sizeof(version));
    EXPECT_EQ(version, TraceWire::kVersion);
    uint64_t footer_magic = 0;
    std::memcpy(&footer_magic,
                bytes.data() + bytes.size() - sizeof(uint64_t),
                sizeof(uint64_t));
    EXPECT_EQ(footer_magic, TraceWire::kFooterMagic);
}

TEST(TraceIoTest, EmptyTraceListRoundTrips)
{
    std::stringstream stream;
    saveTraces(stream, {});
    std::vector<Trace> loaded;
    EXPECT_TRUE(loadBytes(stream.str(), &loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIoTest, GarbageInputRejected)
{
    std::vector<Trace> loaded;
    EXPECT_FALSE(loadBytes("this is not a trace file at all", &loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIoTest, TruncatedInputRejected)
{
    std::stringstream full;
    saveTraces(full, {sampleTrace(1)});
    const std::string bytes = full.str();
    std::vector<Trace> loaded;
    EXPECT_FALSE(loadBytes(bytes.substr(0, bytes.size() / 2), &loaded));
}

TEST(TraceIoTest, FileRoundTrip)
{
    const std::string path = scratchPath();
    ASSERT_TRUE(saveTracesToFile(path, {sampleTrace(42)}));
    auto reader = TraceFileReader::open(path);
    ASSERT_TRUE(reader);
    ASSERT_EQ(reader->traceCount(), 1u);
    DecodedTrace decoded;
    ASSERT_TRUE(reader->decode(0, &decoded));
    EXPECT_EQ(decoded.trace.id(), 42u);
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileReported)
{
    std::string error;
    EXPECT_FALSE(
        TraceFileReader::open("/nonexistent/nowhere.bin",
                              IngestMode::Auto, &error));
    EXPECT_EQ(error, "/nonexistent/nowhere.bin: cannot open");
}

/** Bytewise-table IEEE 802.3 reflected CRC32, the textbook form. */
uint32_t
referenceCrc32(const uint8_t *data, size_t len)
{
    static const std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(256);
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < len; i++)
        crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

TEST(Crc32Test, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32Test, ContinuesAcrossSplits)
{
    // The report writer CRCs its body in pieces as it streams it out.
    const char text[] = "persist intervals, epochs and the checker";
    const size_t len = sizeof text - 1;
    for (size_t split = 0; split <= len; split++) {
        EXPECT_EQ(crc32(text + split, len - split, crc32(text, split)),
                  crc32(text, len))
            << "split at " << split;
    }
}

/** @p n pseudo-random bytes (a fixed LCG, so every run sees the same). */
std::vector<uint8_t>
noiseBytes(size_t n)
{
    std::vector<uint8_t> buf(n);
    uint32_t x = 0x12345678u;
    for (uint8_t &b : buf) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<uint8_t>(x >> 24);
    }
    return buf;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Covers every tail length after the 8-byte table steps and the
    // 16-byte folds, and every start alignment of those loads.
    constexpr size_t kMaxLen = 4096;
    constexpr size_t kMaxOffset = 15;
    const std::vector<uint8_t> buf = noiseBytes(kMaxLen + kMaxOffset);
    for (size_t offset = 0; offset <= kMaxOffset; offset++) {
        for (size_t len = 0; len <= kMaxLen; len++) {
            ASSERT_EQ(crc32(buf.data() + offset, len),
                      referenceCrc32(buf.data() + offset, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32Test, PortablePathMatchesBytewiseReference)
{
    // crc32 folds with carry-less multiplies where the CPU can, so
    // the table path is checked on its own too.
    constexpr size_t kMaxLen = 1024;
    constexpr size_t kMaxOffset = 15;
    const std::vector<uint8_t> buf = noiseBytes(kMaxLen + kMaxOffset);
    for (size_t offset = 0; offset <= kMaxOffset; offset++) {
        for (size_t len = 0; len <= kMaxLen; len++) {
            ASSERT_EQ(crc32Portable(buf.data() + offset, len),
                      referenceCrc32(buf.data() + offset, len))
                << "offset " << offset << " length " << len;
        }
    }
    EXPECT_EQ(crc32Portable("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, ContinuesAcrossEverySplitOfALongBuffer)
{
    // Each side of every split is folded, table-stepped or both, so
    // the continued CRC crosses the fold/tail boundary on each side.
    constexpr size_t kLen = 1500;
    const std::vector<uint8_t> buf = noiseBytes(kLen);
    const uint32_t whole = referenceCrc32(buf.data(), kLen);
    for (size_t split = 0; split <= kLen; split++) {
        const uint32_t head = crc32(buf.data(), split);
        ASSERT_EQ(crc32(buf.data() + split, kLen - split, head), whole)
            << "split at " << split;
        ASSERT_EQ(crc32Portable(buf.data() + split, kLen - split,
                                crc32Portable(buf.data(), split)),
                  whole)
            << "portable, split at " << split;
    }
}

} // namespace
} // namespace pmtest
