/**
 * @file
 * TraceFileReader (mmap-backed indexed v2 reader) tests: round-trips
 * through mmap and through the read() fallback (a FIFO), v1
 * rejection, fail-closed behaviour on every truncation point and
 * footer/index/frame/body corruption, and the determinism contract
 * of the parallel ingest pipeline against a serial decode-and-check
 * loop.
 */

#include "trace/trace_reader.hh"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "trace/seed_corpus.hh"
#include "trace/trace_io.hh"

namespace pmtest
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return std::string("/tmp/pmtest_trace_reader_test_") + tag + "_" +
           std::to_string(getpid()) + ".bin";
}

Trace
sampleTrace(uint64_t id, uint32_t thread_id, size_t rounds)
{
    Trace t(id, thread_id);
    for (size_t i = 0; i < rounds; i++) {
        const uint64_t addr = 0x1000 + 64 * ((id * 7 + i) % 256);
        t.append(PmOp::write(addr, 64, SourceLocation("wl.cc", 100)));
        // Every third round skips the writeback: a FAIL finding, so
        // the determinism test compares non-empty reports.
        if (i % 3 != 0)
            t.append(PmOp::clwb(addr, 64,
                                SourceLocation("wl.cc", 101)));
        t.append(PmOp::sfence(SourceLocation("wl.cc", 102)));
        t.append(PmOp::isPersist(addr, 64,
                                 SourceLocation("chk.cc", 7)));
    }
    return t;
}

std::vector<Trace>
sampleTraces(size_t count, size_t rounds)
{
    std::vector<Trace> traces;
    for (size_t i = 0; i < count; i++)
        traces.push_back(
            sampleTrace(i, static_cast<uint32_t>(i % 3), rounds));
    return traces;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path,
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.threadId(), b.threadId());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        const PmOp &x = a.ops()[i];
        const PmOp &y = b.ops()[i];
        EXPECT_EQ(x.type, y.type) << "op " << i;
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.size, y.size);
        EXPECT_EQ(x.addrB, y.addrB);
        EXPECT_EQ(x.sizeB, y.sizeB);
        EXPECT_EQ(x.loc.valid(), y.loc.valid());
        if (x.loc.valid())
            EXPECT_EQ(x.loc.str(), y.loc.str()) << "op " << i;
    }
}

/**
 * Serial reference check: decode every trace of @p reader in file
 * order and check it on one engine. @return the canonical report.
 */
core::Report
checkSerially(const TraceFileReader &reader)
{
    core::Report report;
    core::Engine engine(core::ModelKind::X86);
    for (size_t i = 0; i < reader.traceCount(); i++) {
        DecodedTrace decoded;
        EXPECT_TRUE(reader.decode(i, &decoded)) << "trace " << i;
        report.merge(engine.check(decoded.trace));
    }
    report.canonicalize();
    return report;
}

void
expectRoundTrip(const TraceFileReader &reader,
                const std::vector<Trace> &traces)
{
    ASSERT_EQ(reader.traceCount(), traces.size());

    uint64_t total = 0;
    for (size_t i = 0; i < traces.size(); i++) {
        EXPECT_EQ(reader.opCount(i), traces[i].size());
        EXPECT_EQ(reader.threadId(i), traces[i].threadId());
        total += traces[i].size();

        DecodedTrace decoded;
        ASSERT_TRUE(reader.decode(i, &decoded));
        expectTracesEqual(traces[i], decoded.trace);
    }
    EXPECT_EQ(reader.totalOps(), total);
}

TEST(TraceReaderTest, RoundTripMmap)
{
    const auto traces = sampleTraces(5, 4);
    const std::string path = tmpPath("roundtrip");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    std::string error;
    auto reader = TraceFileReader::open(path, IngestMode::Mmap, &error);
    ASSERT_TRUE(reader) << error;
    EXPECT_TRUE(reader->mmapBacked());
    expectRoundTrip(*reader, traces);
    std::remove(path.c_str());
}

TEST(TraceReaderTest, RoundTripStreamFallback)
{
    // A FIFO cannot be mapped or seek-sized: Auto mode must read it to
    // EOF from the descriptor and check it byte-identically to the
    // mmap'd file.
    const auto traces = sampleTraces(5, 4);
    const std::string path = tmpPath("fifo_src");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    const std::string bytes = readFile(path);

    const std::string fifo = tmpPath("fifo");
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    std::thread writer([&] { writeFile(fifo, bytes); });

    std::string error;
    auto piped = TraceFileReader::open(fifo, IngestMode::Auto, &error);
    writer.join();
    ASSERT_TRUE(piped) << error;
    EXPECT_FALSE(piped->mmapBacked());
    EXPECT_EQ(piped->sizeBytes(), bytes.size());
    expectRoundTrip(*piped, traces);

    auto mapped = TraceFileReader::open(path, IngestMode::Mmap, &error);
    ASSERT_TRUE(mapped) << error;
    const core::Report expected = checkSerially(*mapped);
    ASSERT_GT(expected.failCount(), 0u);
    EXPECT_EQ(checkSerially(*piped).str(), expected.str());

    std::remove(fifo.c_str());
    std::remove(path.c_str());
}

TEST(TraceReaderTest, EmptyFileRoundTrips)
{
    const std::string path = tmpPath("empty");
    ASSERT_TRUE(saveTracesToFile(path, {}));
    std::string error;
    auto reader = TraceFileReader::open(path, IngestMode::Auto,
                                        &error);
    ASSERT_TRUE(reader) << error;
    EXPECT_EQ(reader->traceCount(), 0u);
    EXPECT_EQ(reader->totalOps(), 0u);
    std::remove(path.c_str());
}

TEST(TraceReaderTest, V1FileRejected)
{
    // A v1 file: the shared header with version 1, then unframed
    // bodies and no index footer. The reader must refuse it, naming
    // the format, in every mode.
    const auto traces = sampleTraces(3, 2);
    std::string bytes(TraceWire::kHeaderBytes, '\0');
    const uint32_t version = 1;
    const uint32_t count = static_cast<uint32_t>(traces.size());
    std::memcpy(&bytes[0], &TraceWire::kMagic, sizeof(uint64_t));
    std::memcpy(&bytes[8], &version, sizeof(version));
    std::memcpy(&bytes[12], &count, sizeof(count));
    for (const auto &trace : traces)
        encodeTraceBody(trace, &bytes);
    const std::string path = tmpPath("v1");
    writeFile(path, bytes);

    for (const IngestMode mode : {IngestMode::Auto, IngestMode::Mmap}) {
        std::string error;
        EXPECT_FALSE(TraceFileReader::open(path, mode, &error));
        EXPECT_EQ(error.rfind(path + ": v1 trace file", 0), 0u) << error;
        EXPECT_NE(error.find("re-record"), std::string::npos) << error;
    }
    std::remove(path.c_str());
}

TEST(TraceReaderTest, MissingFileReported)
{
    std::string error;
    auto reader = TraceFileReader::open("/nonexistent/nowhere.bin",
                                        IngestMode::Auto, &error);
    EXPECT_FALSE(reader);
    EXPECT_FALSE(error.empty());
}

TEST(TraceReaderTest, EveryTruncationFailsClosed)
{
    const auto traces = sampleTraces(3, 2);
    const std::string path = tmpPath("full");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    const std::string bytes = readFile(path);
    std::remove(path.c_str());
    ASSERT_GT(bytes.size(), TraceWire::kFooterBytes);

    const std::string cut_path = tmpPath("truncated");
    for (size_t len = 0; len < bytes.size(); len++) {
        writeFile(cut_path, bytes.substr(0, len));
        std::string error;
        auto reader = TraceFileReader::open(cut_path,
                                            IngestMode::Mmap,
                                            &error);
        EXPECT_FALSE(reader) << "prefix of " << len
                             << " bytes accepted";
    }
    std::remove(cut_path.c_str());
}

TEST(TraceReaderTest, CorruptFooterBytesRejected)
{
    const auto traces = sampleTraces(2, 3);
    const std::string path = tmpPath("footer");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    const std::string bytes = readFile(path);

    const std::string flip_path = tmpPath("footer_flip");
    for (size_t i = bytes.size() - TraceWire::kFooterBytes;
         i < bytes.size(); i++) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        writeFile(flip_path, mutated);
        std::string error;
        auto reader = TraceFileReader::open(flip_path,
                                            IngestMode::Mmap,
                                            &error);
        EXPECT_FALSE(reader) << "footer byte " << i << " flip "
                             << "accepted";
    }
    std::remove(path.c_str());
    std::remove(flip_path.c_str());
}

TEST(TraceReaderTest, CorruptFrameBodyBytesFailClosed)
{
    // The CRC covers the index, not the frames, so a flipped body
    // byte opens fine and must be caught by decode() — as a false
    // return, never an exception: an untrusted count (string_count's
    // high byte) must not size an allocation that throws bad_alloc.
    std::vector<Trace> traces;
    for (SeedTrace &seed : seedCorpusTraces())
        traces.push_back(std::move(seed.trace));
    const std::string path = tmpPath("body");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    const std::string bytes = readFile(path);
    uint64_t index_offset;
    std::memcpy(&index_offset,
                bytes.data() + bytes.size() - TraceWire::kFooterBytes,
                sizeof(index_offset));

    const std::string flip_path = tmpPath("body_flip");
    size_t opened = 0;
    for (size_t i = TraceWire::kHeaderBytes; i < index_offset; i++) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
        writeFile(flip_path, mutated);
        auto reader = TraceFileReader::open(flip_path,
                                            IngestMode::Mmap);
        if (!reader)
            continue; // a frame length: caught by validation
        opened++;
        for (size_t t = 0; t < reader->traceCount(); t++) {
            DecodedTrace decoded;
            EXPECT_NO_THROW(reader->decode(t, &decoded))
                << "body byte " << i << " flip threw";
        }
    }
    EXPECT_GT(opened, 0u);
    std::remove(path.c_str());
    std::remove(flip_path.c_str());
}

TEST(TraceReaderTest, CorruptIndexCaughtByCrc)
{
    const auto traces = sampleTraces(4, 2);
    const std::string path = tmpPath("index");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    std::string bytes = readFile(path);

    // The index sits right before the footer.
    const size_t index_bytes =
        traces.size() * TraceWire::kIndexEntryBytes;
    const size_t index_start =
        bytes.size() - TraceWire::kFooterBytes - index_bytes;
    const std::string flip_path = tmpPath("index_flip");
    for (size_t off = 0; off < index_bytes;
         off += TraceWire::kIndexEntryBytes / 2) {
        std::string mutated = bytes;
        mutated[index_start + off] =
            static_cast<char>(mutated[index_start + off] ^ 0x01);
        writeFile(flip_path, mutated);
        std::string error;
        auto reader = TraceFileReader::open(flip_path,
                                            IngestMode::Mmap,
                                            &error);
        EXPECT_FALSE(reader) << "index byte " << off << " flip "
                             << "accepted";
    }
    std::remove(path.c_str());
    std::remove(flip_path.c_str());
}

TEST(TraceReaderTest, CorruptFrameLengthRejected)
{
    const auto traces = sampleTraces(3, 2);
    const std::string path = tmpPath("framelen");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    std::string bytes = readFile(path);

    // First frame_len lives right after the 16-byte header. The
    // index CRC does not cover frames, so this exercises the frame
    // chaining validation specifically.
    bytes[TraceWire::kHeaderBytes] =
        static_cast<char>(bytes[TraceWire::kHeaderBytes] ^ 0x7f);
    writeFile(path, bytes);
    std::string error;
    auto reader = TraceFileReader::open(path, IngestMode::Mmap,
                                        &error);
    EXPECT_FALSE(reader);
    std::remove(path.c_str());
}

TEST(TraceReaderTest, ParallelIngestMatchesSerialByteForByte)
{
    const auto traces = sampleTraces(40, 6);
    const std::string v2_path = tmpPath("det_v2");
    ASSERT_TRUE(saveTracesToFile(v2_path, traces));

    // Serial reference: decode loop + one engine, in file order. The
    // reports own the trace arenas, so the reader may go away.
    core::Report serial;
    {
        auto reader = TraceFileReader::open(v2_path);
        ASSERT_TRUE(reader);
        serial = checkSerially(*reader);
    }
    ASSERT_GT(serial.failCount(), 0u)
        << "workload must produce findings for the comparison to "
           "mean anything";

    // Parallel pipeline: mmap source, 4 decoders, 4 pool workers.
    // The reports own the trace arenas, so nothing else needs to
    // outlive them.
    core::Report parallel;
    {
        std::string error;
        auto source =
            openTraceSource(v2_path, IngestMode::Mmap, 0, &error);
        ASSERT_TRUE(source) << error;
        core::PoolOptions options;
        options.workers = 4;
        core::EnginePool pool(options);
        core::IngestOptions ingest;
        ingest.decoders = 4;
        core::IngestStats stats;
        ASSERT_TRUE(
            core::ingest(*source, pool, ingest, &stats, nullptr));
        parallel = pool.results();
        parallel.canonicalize();

        EXPECT_TRUE(stats.active);
        EXPECT_TRUE(stats.mmapBacked);
        EXPECT_EQ(stats.sources, 1u);
        EXPECT_EQ(stats.tracesDecoded, traces.size());
        EXPECT_GT(stats.bytesMapped, 0u);
    }

    EXPECT_EQ(serial.failCount(), parallel.failCount());
    EXPECT_EQ(serial.warnCount(), parallel.warnCount());
    EXPECT_EQ(serial.str(), parallel.str());

    std::remove(v2_path.c_str());
}

} // namespace
} // namespace pmtest
