/**
 * @file
 * TraceSource tests: identity stamping and arena attachment across
 * every source kind, byte-balanced shard partitioning, v1 rejection,
 * the blocking capture source, the multi-source composite,
 * decode-error attribution (file + trace index), and the byte-
 * identity of sharded / multi-file ingest against the single-source
 * run — including a two-file set against checking each file
 * separately and merging.
 */

#include "trace/trace_source.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_pool.hh"
#include "core/trace_ingest.hh"
#include "trace/trace_io.hh"

namespace pmtest
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return "/tmp/pmtest_trace_source_test_" +
           std::to_string(getpid()) + "_" + tag + ".bin";
}

Trace
sampleTrace(uint64_t id, uint32_t thread_id, size_t rounds)
{
    Trace t(id, thread_id);
    for (size_t i = 0; i < rounds; i++) {
        const uint64_t addr = 0x1000 + 64 * ((id * 7 + i) % 256);
        t.append(PmOp::write(addr, 64, SourceLocation("wl.cc", 100)));
        // Every third round skips the writeback: a FAIL finding, so
        // the byte-identity tests compare non-empty reports.
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

/** Drain @p source completely; fail the test on a source error. */
void
drain(TraceSource &source, std::vector<Trace> *out,
      size_t pull_size = 4)
{
    for (;;) {
        SourceError error;
        const auto result = source.pull(pull_size, out, &error);
        if (result == TraceSource::Pull::End)
            return;
        ASSERT_NE(result, TraceSource::Pull::Error) << error.str();
    }
}

/** Canonical report of one ingest() run over @p source. */
std::string
checkVerdict(TraceSource &source, size_t decoders, size_t workers)
{
    core::PoolOptions options;
    options.workers = workers;
    core::EnginePool pool(options);
    core::IngestOptions ingest_options;
    ingest_options.decoders = decoders;
    SourceError error;
    EXPECT_TRUE(core::ingest(source, pool, ingest_options, nullptr,
                             &error))
        << error.str();
    core::Report merged = pool.results();
    merged.canonicalize();
    return merged.str();
}

TEST(TraceSourceTest, V2FileSourceStampsIdentityAndArena)
{
    const auto traces = sampleTraces(6, 3);
    const std::string path = tmpPath("v2_identity");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    std::string error;
    auto source = openTraceSource(path, IngestMode::Auto, 7, &error);
    ASSERT_TRUE(source) << error;
    EXPECT_EQ(source->traceCount(), traces.size());
    EXPECT_EQ(source->sourceCount(), 1u);
    EXPECT_GT(source->totalOps(), 0u);
    EXPECT_GT(source->sizeBytes(), 0u);

    std::vector<Trace> out;
    drain(*source, &out);
    ASSERT_EQ(out.size(), traces.size());
    for (const auto &trace : out) {
        EXPECT_EQ(trace.fileId(), 7u);
        EXPECT_TRUE(trace.arena() != nullptr)
            << "decoded traces must co-own their string arena";
    }
    std::remove(path.c_str());
}

TEST(TraceSourceTest, V1FilesAreRejected)
{
    // A bare v1 header (magic, version 1, zero traces): v1 is no
    // longer read, so both modes fail closed with a path-qualified
    // error that names the format.
    std::string bytes(TraceWire::kHeaderBytes, '\0');
    const uint32_t version = 1;
    std::memcpy(&bytes[0], &TraceWire::kMagic, sizeof(uint64_t));
    std::memcpy(&bytes[8], &version, sizeof(version));
    const std::string path = tmpPath("v1_header");
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    for (const IngestMode mode : {IngestMode::Auto, IngestMode::Mmap}) {
        std::string error;
        EXPECT_FALSE(openTraceSource(path, mode, 0, &error));
        EXPECT_EQ(error.rfind(path + ": v1 trace file", 0), 0u) << error;
    }
    std::remove(path.c_str());
}

TEST(TraceSourceTest, ShardsPartitionTheIndexExactly)
{
    const auto traces = sampleTraces(11, 3);
    const std::string path = tmpPath("shard_partition");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    std::string error;
    std::shared_ptr<const TraceFileReader> reader =
        TraceFileReader::open(path, IngestMode::Auto, &error);
    ASSERT_TRUE(reader) << error;

    for (const size_t shards : {size_t{1}, size_t{2}, size_t{3},
                                size_t{7}, size_t{11}, size_t{40}}) {
        auto slices = shardTraceSource(reader, path, 0, shards);
        ASSERT_FALSE(slices.empty());
        EXPECT_LE(slices.size(), std::min(shards, traces.size()));

        // Contiguous, in order, covering [0, count) exactly, and no
        // empty shard (the factory clamps instead).
        size_t at = 0;
        uint64_t shard_bytes = 0;
        for (const auto &slice : slices) {
            const auto *v2 =
                dynamic_cast<const V2FileSource *>(slice.get());
            ASSERT_NE(v2, nullptr);
            EXPECT_EQ(v2->begin(), at);
            EXPECT_GT(v2->end(), v2->begin());
            at = v2->end();
            shard_bytes += slice->sizeBytes();
        }
        EXPECT_EQ(at, traces.size()) << shards << " shards";
        // Shards account frame bytes only, so they sum to less than
        // the whole file (header + index + footer excluded).
        if (slices.size() > 1)
            EXPECT_LT(shard_bytes, reader->sizeBytes());
    }
    std::remove(path.c_str());
}

TEST(TraceSourceTest, ShardNamesCarryTheSlice)
{
    const auto traces = sampleTraces(4, 2);
    const std::string path = tmpPath("shard_names");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    std::string error;
    std::shared_ptr<const TraceFileReader> reader =
        TraceFileReader::open(path, IngestMode::Auto, &error);
    ASSERT_TRUE(reader) << error;
    auto slices = shardTraceSource(reader, path, 0, 2);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0]->name(), path + "[1/2]");
    EXPECT_EQ(slices[1]->name(), path + "[2/2]");
    std::remove(path.c_str());
}

TEST(TraceSourceTest, ShardedIngestMatchesWholeFileByteForByte)
{
    const auto traces = sampleTraces(23, 5);
    const std::string path = tmpPath("shard_verdict");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    std::string error;
    auto whole = openTraceSource(path, IngestMode::Auto, 0, &error);
    ASSERT_TRUE(whole) << error;
    const std::string reference = checkVerdict(*whole, 1, 0);
    EXPECT_NE(reference.find("FAIL"), std::string::npos)
        << "workload must produce findings for the comparison to "
           "mean anything";

    std::shared_ptr<const TraceFileReader> reader =
        TraceFileReader::open(path, IngestMode::Auto, &error);
    ASSERT_TRUE(reader) << error;
    MultiTraceSource sharded(shardTraceSource(reader, path, 0, 4));
    EXPECT_EQ(sharded.sourceCount(), 4u);
    EXPECT_EQ(sharded.traceCount(), traces.size());
    EXPECT_EQ(checkVerdict(sharded, 4, 4), reference);

    std::remove(path.c_str());
}

TEST(TraceSourceTest, MultiFileSetMatchesPerFileCheckAndMerge)
{
    // Both files reuse trace ids 0..N-1, so the canonical order of
    // the combined run genuinely depends on the fileId tiebreak.
    const auto first = sampleTraces(7, 4);
    const auto second = sampleTraces(5, 3);
    const std::string a_path = tmpPath("multi_a");
    const std::string b_path = tmpPath("multi_b");
    ASSERT_TRUE(saveTracesToFile(a_path, first));
    ASSERT_TRUE(saveTracesToFile(b_path, second));

    // Reference: check each file separately (with its input-order
    // fileId) and merge the reports.
    std::string error;
    core::Report reference;
    {
        auto a = openTraceSource(a_path, IngestMode::Auto, 0,
                                 &error);
        ASSERT_TRUE(a) << error;
        core::EnginePool pool(core::PoolOptions{});
        SourceError source_error;
        ASSERT_TRUE(core::ingest(*a, pool, core::IngestOptions{},
                                 nullptr, &source_error))
            << source_error.str();
        reference.merge(pool.results());
    }
    {
        auto b = openTraceSource(b_path, IngestMode::Auto, 1,
                                 &error);
        ASSERT_TRUE(b) << error;
        core::EnginePool pool(core::PoolOptions{});
        SourceError source_error;
        ASSERT_TRUE(core::ingest(*b, pool, core::IngestOptions{},
                                 nullptr, &source_error))
            << source_error.str();
        reference.merge(pool.results());
    }
    reference.canonicalize();
    EXPECT_GT(reference.failCount(), 0u);

    // Combined run: one multi-source over both files, parallel
    // decoders and workers.
    std::vector<std::unique_ptr<TraceSource>> children;
    children.push_back(
        openTraceSource(a_path, IngestMode::Auto, 0, &error));
    ASSERT_TRUE(children.back()) << error;
    children.push_back(
        openTraceSource(b_path, IngestMode::Auto, 1, &error));
    ASSERT_TRUE(children.back()) << error;
    MultiTraceSource combined(std::move(children));
    EXPECT_EQ(combined.sourceCount(), 2u);
    EXPECT_EQ(combined.traceCount(), first.size() + second.size());
    EXPECT_EQ(checkVerdict(combined, 3, 4), reference.str());

    std::remove(a_path.c_str());
    std::remove(b_path.c_str());
}

TEST(TraceSourceTest, CaptureSourceBlocksUntilPushOrClose)
{
    CaptureTraceSource capture("<test-capture>", 9);

    std::thread producer([&] {
        for (uint64_t i = 0; i < 10; i++)
            capture.push(sampleTrace(i, 0, 2));
        capture.close();
    });

    std::vector<Trace> out;
    for (;;) {
        SourceError error;
        const auto result = capture.pull(3, &out, &error);
        if (result == TraceSource::Pull::End)
            break;
        ASSERT_EQ(result, TraceSource::Pull::Items);
    }
    producer.join();

    ASSERT_EQ(out.size(), 10u);
    for (const auto &trace : out)
        EXPECT_EQ(trace.fileId(), 9u);
    EXPECT_EQ(capture.traceCount(), TraceSource::kUnknownCount);

    // A closed, drained source stays at End.
    SourceError error;
    EXPECT_EQ(capture.pull(3, &out, &error),
              TraceSource::Pull::End);
}

TEST(TraceSourceTest, CaptureSinkFeedsIngest)
{
    CaptureTraceSource capture;
    auto sink = capture.sink();

    std::thread producer([&] {
        for (uint64_t i = 0; i < 8; i++)
            sink(sampleTrace(i, 0, 3));
        capture.close();
    });

    const std::string verdict = checkVerdict(capture, 2, 2);
    producer.join();
    EXPECT_NE(verdict.find("FAIL"), std::string::npos);
}

TEST(TraceSourceTest, DecodeErrorNamesFileAndTraceIndex)
{
    const auto traces = sampleTraces(3, 2);
    const std::string path = tmpPath("decode_error");
    ASSERT_TRUE(saveTracesToFile(path, traces));

    // Corrupt the first body's op_count (body offset 12, after the
    // 8-byte frame length): frame chaining and the index CRC still
    // validate, but decode cross-checks against the index and fails.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(static_cast<std::streamoff>(TraceWire::kHeaderBytes +
                                            8 + 12));
        const char bogus = 0x5a;
        f.write(&bogus, 1);
    }

    std::string open_error;
    auto source =
        openTraceSource(path, IngestMode::Auto, 0, &open_error);
    ASSERT_TRUE(source) << open_error;

    core::EnginePool pool(core::PoolOptions{});
    SourceError error;
    EXPECT_FALSE(core::ingest(*source, pool, core::IngestOptions{},
                              nullptr, &error));
    EXPECT_EQ(error.file, path);
    EXPECT_EQ(error.traceIndex, 0u);
    EXPECT_NE(error.str().find(path + ": trace #0: "),
              std::string::npos)
        << error.str();

    std::remove(path.c_str());
}

/** Rebuilds what checkNext() streams into it, window by window. */
class RecordingConsumer final : public TraceConsumer
{
  public:
    void consume(const Trace &trace) override
    {
        got = trace;
        windows.assign(1, trace.size());
        whole = true;
    }

    void begin(uint64_t trace_id, uint32_t file_id) override
    {
        got = Trace(trace_id, 0);
        got.setFileId(file_id);
        windows.clear();
        whole = false;
    }

    void feed(const PmOp *ops, size_t count) override
    {
        got.append(std::vector<PmOp>(ops, ops + count));
        windows.push_back(count);
    }

    void finish(Arena a) override { arena = std::move(a); }

    Trace got;
    std::vector<size_t> windows;
    bool whole = false;
    Arena arena;
};

TEST(TraceSourceTest, CheckNextStreamsFileTracesInFixedWindows)
{
    // Trace 1 spans several windows; traces 0 and 2 fit in one.
    constexpr size_t kWindow = TraceConsumer::kWindowOps;
    std::vector<Trace> traces{sampleTrace(0, 1, 2),
                              sampleTrace(1, 2, kWindow),
                              sampleTrace(2, 3, 1)};
    const std::string path = tmpPath("check_next");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    std::string error;
    auto source = openTraceSource(path, IngestMode::Auto, 5, &error);
    ASSERT_TRUE(source) << error;

    RecordingConsumer consumer;
    for (const Trace &expected : traces) {
        SourceError source_error;
        ASSERT_EQ(source->checkNext(consumer, &source_error),
                  TraceSource::Pull::Items);
        EXPECT_FALSE(consumer.whole);
        EXPECT_EQ(consumer.got.id(), expected.id());
        EXPECT_EQ(consumer.got.fileId(), 5u);
        ASSERT_EQ(consumer.got.size(), expected.size());
        for (size_t i = 0; i < expected.size(); i++) {
            const PmOp &a = consumer.got.ops()[i];
            const PmOp &b = expected.ops()[i];
            ASSERT_EQ(a.type, b.type) << i;
            ASSERT_EQ(a.addr, b.addr) << i;
            ASSERT_EQ(a.size, b.size) << i;
            ASSERT_EQ(a.loc.str(), b.loc.str()) << i;
        }
        // Full windows, then the remainder.
        const size_t full = expected.size() / kWindow;
        ASSERT_EQ(consumer.windows.size(),
                  full + (expected.size() % kWindow != 0));
        for (size_t w = 0; w < full; w++)
            EXPECT_EQ(consumer.windows[w], kWindow);
        // The locations point into the arena handed to finish().
        ASSERT_TRUE(consumer.arena);
        EXPECT_FALSE(consumer.arena->empty());
    }
    EXPECT_EQ(source->consumedTraces(), traces.size());
    EXPECT_EQ(source->consumedBytes(), source->sizeBytes() -
                                           TraceWire::kHeaderBytes -
                                           TraceWire::kFooterBytes -
                                           3 * TraceWire::kIndexEntryBytes);
    SourceError source_error;
    EXPECT_EQ(source->checkNext(consumer, &source_error),
              TraceSource::Pull::End);
    std::remove(path.c_str());

    // A capture source hands each pushed trace over whole.
    CaptureTraceSource capture("<capture>", 4);
    capture.push(sampleTrace(9, 0, 3));
    capture.close();
    ASSERT_EQ(capture.checkNext(consumer, &source_error),
              TraceSource::Pull::Items);
    EXPECT_TRUE(consumer.whole);
    EXPECT_EQ(consumer.got.id(), 9u);
    EXPECT_EQ(consumer.got.fileId(), 4u);
    EXPECT_EQ(capture.consumedTraces(), 1u);
    EXPECT_EQ(capture.checkNext(consumer, &source_error),
              TraceSource::Pull::End);
}

TEST(TraceSourceTest, SourceErrorRendersFileAndIndex)
{
    SourceError error;
    error.file = "set.trace";
    error.traceIndex = 12;
    error.message = "corrupt trace body (decode failed)";
    EXPECT_EQ(error.str(), "set.trace: trace #12: corrupt trace "
                           "body (decode failed)");
}

} // namespace
} // namespace pmtest
