/**
 * @file
 * TraceSource tests: identity stamping and arena attachment across
 * every source kind, v1 rejection, the blocking capture source, the
 * multi-source composite, decode-error attribution (file + trace
 * index), windowed checkNext, its longest-first claim order (one
 * file and a file set), and the byte-identity of multi-file ingest
 * against checking each file separately and merging.
 */

#include "trace/trace_source.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
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
    void consume(const Trace &trace, size_t i) override
    {
        got = trace;
        index = i;
        windows.assign(1, trace.size());
        whole = true;
    }

    void begin(uint64_t trace_id, uint32_t file_id, size_t i) override
    {
        got = Trace(trace_id, 0);
        got.setFileId(file_id);
        index = i;
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
    size_t index = 0;
    std::vector<size_t> windows;
    bool whole = false;
    Arena arena;
};

TEST(TraceSourceTest, CheckNextStreamsFileTracesInFixedWindows)
{
    // Trace 1 spans several windows, so it is claimed first; traces
    // 0 and 2 fit in one and follow in index order.
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
    for (const size_t index : {size_t{1}, size_t{0}, size_t{2}}) {
        const Trace &expected = traces[index];
        SourceError source_error;
        ASSERT_EQ(source->checkNext(consumer, &source_error),
                  TraceSource::Pull::Items);
        EXPECT_FALSE(consumer.whole);
        EXPECT_EQ(consumer.index, index);
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

    // A capture source hands each pushed trace over whole, indexed
    // in arrival order.
    CaptureTraceSource capture("<capture>", 4);
    capture.push(sampleTrace(9, 0, 3));
    capture.push(sampleTrace(9, 1, 3));
    capture.close();
    for (size_t index = 0; index < 2; index++) {
        ASSERT_EQ(capture.checkNext(consumer, &source_error),
                  TraceSource::Pull::Items);
        EXPECT_TRUE(consumer.whole);
        EXPECT_EQ(consumer.index, index);
        EXPECT_EQ(consumer.got.id(), 9u);
        EXPECT_EQ(consumer.got.fileId(), 4u);
    }
    EXPECT_EQ(capture.consumedTraces(), 2u);
    EXPECT_EQ(capture.checkNext(consumer, &source_error),
              TraceSource::Pull::End);
}

/** A trace of exactly @p ops ops (fences; no findings). */
Trace
sizedTrace(uint64_t id, size_t ops)
{
    Trace t(id, 0);
    for (size_t i = 0; i < ops; i++)
        t.append(PmOp::sfence(SourceLocation("sized.cc", 1)));
    return t;
}

/** Drain @p source through checkNext: (fileId, index) per claim. */
std::vector<std::pair<uint32_t, size_t>>
claimOrder(TraceSource &source)
{
    std::vector<std::pair<uint32_t, size_t>> order;
    RecordingConsumer consumer;
    SourceError error;
    TraceSource::Pull result;
    while ((result = source.checkNext(consumer, &error)) ==
           TraceSource::Pull::Items)
        order.emplace_back(consumer.got.fileId(), consumer.index);
    EXPECT_EQ(result, TraceSource::Pull::End) << error.str();
    return order;
}

TEST(TraceSourceTest, ClaimsMultiWindowTracesLongestFirst)
{
    // Traces 1, 3 and 4 span several windows (1 and 4 tie, so index
    // breaks the tie); the rest fit in one, including trace 5 at
    // exactly one window.
    constexpr size_t kWindow = TraceConsumer::kWindowOps;
    const std::vector<Trace> traces{
        sizedTrace(0, 10),          sizedTrace(1, 3 * kWindow),
        sizedTrace(2, kWindow - 1), sizedTrace(3, 5 * kWindow),
        sizedTrace(4, 3 * kWindow), sizedTrace(5, kWindow),
        sizedTrace(6, 1)};
    const std::string path = tmpPath("longest_first");
    ASSERT_TRUE(saveTracesToFile(path, traces));
    std::string error;
    auto source = openTraceSource(path, IngestMode::Auto, 2, &error);
    ASSERT_TRUE(source) << error;
    using Claims = std::vector<std::pair<uint32_t, size_t>>;
    EXPECT_EQ(claimOrder(*source),
              (Claims{{2, 3}, {2, 1}, {2, 4}, {2, 0}, {2, 2}, {2, 5},
                      {2, 6}}));
    EXPECT_EQ(source->consumedTraces(), traces.size());

    // pull() keeps index order.
    source = openTraceSource(path, IngestMode::Auto, 2, &error);
    ASSERT_TRUE(source) << error;
    std::vector<Trace> pulled;
    drain(*source, &pulled, 3);
    ASSERT_EQ(pulled.size(), traces.size());
    for (size_t i = 0; i < pulled.size(); i++)
        EXPECT_EQ(pulled[i].id(), i);
    std::remove(path.c_str());

    // Single-window traces of varying lengths keep index order.
    const std::vector<Trace> short_traces{
        sizedTrace(0, 7), sizedTrace(1, kWindow), sizedTrace(2, 1),
        sizedTrace(3, kWindow / 2)};
    ASSERT_TRUE(saveTracesToFile(path, short_traces));
    source = openTraceSource(path, IngestMode::Auto, 0, &error);
    ASSERT_TRUE(source) << error;
    EXPECT_EQ(claimOrder(*source),
              (Claims{{0, 0}, {0, 1}, {0, 2}, {0, 3}}));
    std::remove(path.c_str());
}

TEST(TraceSourceTest, FileSetClaimsLongTracesAcrossFiles)
{
    // Every file's long traces come from one schedule merged across
    // the set (files 0 and 2 tie at 4 windows, so fileId breaks the
    // tie); then each file's short traces, file by file.
    constexpr size_t kWindow = TraceConsumer::kWindowOps;
    const std::vector<std::vector<Trace>> files{
        {sizedTrace(0, 5), sizedTrace(1, 4 * kWindow),
         sizedTrace(2, 2 * kWindow)},
        {sizedTrace(0, 6 * kWindow), sizedTrace(1, 9)},
        {sizedTrace(0, 4 * kWindow), sizedTrace(1, 3),
         sizedTrace(2, kWindow + 1), sizedTrace(3, 8)},
    };
    std::vector<std::string> paths;
    std::vector<std::unique_ptr<TraceSource>> children;
    for (size_t f = 0; f < files.size(); f++) {
        const std::string tag = "file_set_" + std::to_string(f);
        paths.push_back(tmpPath(tag.c_str()));
        ASSERT_TRUE(saveTracesToFile(paths.back(), files[f]));
        std::string error;
        children.push_back(
            openTraceSource(paths.back(), IngestMode::Auto,
                            static_cast<uint32_t>(f), &error));
        ASSERT_TRUE(children.back()) << error;
    }
    MultiTraceSource combined(std::move(children));
    using Claims = std::vector<std::pair<uint32_t, size_t>>;
    EXPECT_EQ(claimOrder(combined),
              (Claims{{1, 0}, {0, 1}, {2, 0}, {0, 2}, {2, 2}, {0, 0},
                      {1, 1}, {2, 1}, {2, 3}}));
    EXPECT_EQ(combined.consumedTraces(), 9u);
    for (const std::string &path : paths)
        std::remove(path.c_str());
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
