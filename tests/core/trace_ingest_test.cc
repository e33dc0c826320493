/**
 * @file
 * Unified-ingest tests: the arena-ownership regression (a Report
 * must stay valid after every pipeline object that produced it is
 * destroyed), multi-source ingest stats, and the engine's fileId
 * stamping of findings under every placement policy.
 */

#include "core/trace_ingest.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "trace/trace_io.hh"

namespace pmtest::core
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return "/tmp/pmtest_trace_ingest_test_" +
           std::to_string(getpid()) + "_" + tag + ".bin";
}

/** A trace whose un-flushed store produces one FAIL finding. */
Trace
buggyTrace(uint64_t id)
{
    Trace t(id, 0);
    t.append(PmOp::write(0x1000, 64,
                         SourceLocation("workload.cc", 42)));
    t.append(PmOp::sfence(SourceLocation("workload.cc", 43)));
    t.append(PmOp::isPersist(0x1000, 64,
                             SourceLocation("checker.cc", 9)));
    return t;
}

TEST(TraceIngestTest, ReportOutlivesEveryPipelineObject)
{
    const std::string path = tmpPath("arena_lifetime");
    {
        std::vector<Trace> traces;
        for (uint64_t i = 0; i < 4; i++)
            traces.push_back(buggyTrace(i));
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }

    // Everything that could own the decoded file-name strings —
    // source, reader, pool, engines, the traces themselves — is
    // destroyed inside this scope. Only the report survives.
    Report merged;
    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Auto, 0, &error);
        ASSERT_TRUE(source) << error;
        PoolOptions options;
        options.workers = 2;
        EnginePool pool(options);
        SourceError source_error;
        ASSERT_TRUE(ingest(*source, pool, IngestOptions{}, nullptr,
                           &source_error))
            << source_error.str();
        merged = pool.results();
    }
    std::remove(path.c_str());
    merged.canonicalize();

    // The report shares ownership of the decoder arenas, so the
    // findings' const char* locations are still readable (under
    // ASan a dangling arena would fault here).
    ASSERT_EQ(merged.failCount(), 4u);
    EXPECT_FALSE(merged.arenas().empty());
    for (const auto &finding : merged.findings()) {
        ASSERT_TRUE(finding.loc.valid());
        EXPECT_EQ(std::string(finding.loc.file), "checker.cc");
        EXPECT_EQ(finding.loc.line, 9u);
    }
}

TEST(TraceIngestTest, MergePropagatesHeldArenas)
{
    const std::string path = tmpPath("merge_arenas");
    {
        std::vector<Trace> traces{buggyTrace(0)};
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }

    Report outer;
    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Auto, 0, &error);
        ASSERT_TRUE(source) << error;
        EnginePool pool(PoolOptions{});
        SourceError source_error;
        ASSERT_TRUE(ingest(*source, pool, IngestOptions{}, nullptr,
                           &source_error));
        const Report inner = pool.results();
        EXPECT_FALSE(inner.arenas().empty());
        outer.merge(inner);
    }
    std::remove(path.c_str());

    EXPECT_FALSE(outer.arenas().empty())
        << "merge must carry arena ownership into the aggregate";
    ASSERT_EQ(outer.failCount(), 1u);
    EXPECT_EQ(std::string(outer.findings()[0].loc.file),
              "checker.cc");
}

TEST(TraceIngestTest, MultiSourceStatsAndFileIdStamping)
{
    const std::string path_a = tmpPath("multi_a");
    {
        std::vector<Trace> a{buggyTrace(0), buggyTrace(1)};
        ASSERT_TRUE(saveTracesToFile(path_a, a));
    }

    // Every placement policy over the same two-child source: two
    // workers and two decoders, so Auto and Pinned really pin (one
    // decoder per child, one worker slot each) and Shared does not.
    using Affinity = IngestOptions::Affinity;
    std::string first_report;
    for (const Affinity affinity :
         {Affinity::Auto, Affinity::Shared, Affinity::Pinned}) {
        SCOPED_TRACE(static_cast<int>(affinity));
        std::string error;
        std::vector<std::unique_ptr<TraceSource>> children;
        children.push_back(
            openTraceSource(path_a, IngestMode::Auto, 0, &error));
        ASSERT_TRUE(children.back()) << error;
        // A closed capture source as the second child (fileId 1): its
        // traces live in memory, not in a mapping.
        auto capture =
            std::make_unique<CaptureTraceSource>("<capture>", 1);
        capture->push(buggyTrace(0));
        capture->close();
        children.push_back(std::move(capture));
        MultiTraceSource combined(std::move(children));

        PoolOptions pool_options;
        pool_options.workers = 2;
        EnginePool pool(pool_options);
        IngestOptions options;
        options.decoders = 2;
        options.affinity = affinity;
        IngestStats stats;
        SourceError source_error;
        ASSERT_TRUE(
            ingest(combined, pool, options, &stats, &source_error))
            << source_error.str();
        EXPECT_TRUE(stats.active);
        EXPECT_EQ(stats.sources, 2u);
        EXPECT_EQ(stats.tracesDecoded, 3u);
        // The capture child is not mmap-backed, so neither is the
        // composite.
        EXPECT_FALSE(stats.mmapBacked);
        // The pool carries the same counters, so one stats() snapshot
        // (the metrics publisher's pool sample) covers ingest too.
        const PoolStats pool_stats = pool.stats();
        EXPECT_TRUE(pool_stats.valid);
        EXPECT_TRUE(pool_stats.ingest.active);
        EXPECT_EQ(pool_stats.ingest.tracesDecoded, stats.tracesDecoded);
        EXPECT_EQ(pool_stats.ingest.sources, stats.sources);

        Report merged = pool.results();
        merged.canonicalize();
        ASSERT_EQ(merged.failCount(), 3u);
        // Canonical order is (fileId, traceId): file 0's traces 0, 1
        // first, then file 1's trace 0 — even though its traceId ties
        // with file 0's first trace.
        ASSERT_EQ(merged.findings().size(), 3u);
        EXPECT_EQ(merged.findings()[0].fileId, 0u);
        EXPECT_EQ(merged.findings()[0].traceId, 0u);
        EXPECT_EQ(merged.findings()[1].fileId, 0u);
        EXPECT_EQ(merged.findings()[1].traceId, 1u);
        EXPECT_EQ(merged.findings()[2].fileId, 1u);
        EXPECT_EQ(merged.findings()[2].traceId, 0u);

        // Placement must not change a byte of the canonical report.
        if (first_report.empty())
            first_report = merged.str();
        EXPECT_EQ(merged.str(), first_report);
    }

    std::remove(path_a.c_str());
}

} // namespace
} // namespace pmtest::core
