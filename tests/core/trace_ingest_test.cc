/**
 * @file
 * Unified-ingest tests: the arena-ownership regression (a Report
 * must stay valid after every pipeline object that produced it is
 * destroyed, and only reports with findings hold arenas), multi-
 * source ingest stats, the engine's fileId stamping of findings at
 * every thread layout, and fail-closed decode errors mid-trace.
 */

#include "core/trace_ingest.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/check_session.hh"
#include "core/engine.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"

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

/** A trace with no findings. */
Trace
cleanTrace(uint64_t id)
{
    Trace t(id, 0);
    t.append(PmOp::write(0x2000, 64, SourceLocation("clean.cc", 1)));
    t.append(PmOp::clwb(0x2000, 64, SourceLocation("clean.cc", 2)));
    t.append(PmOp::sfence(SourceLocation("clean.cc", 3)));
    t.append(PmOp::isPersist(0x2000, 64, SourceLocation("clean.cc", 4)));
    return t;
}

TEST(TraceIngestTest, OnlyReportsWithFindingsHoldArenas)
{
    const std::string path = tmpPath("arena_clean");
    {
        std::vector<Trace> traces{cleanTrace(0), buggyTrace(1),
                                  cleanTrace(2), cleanTrace(3)};
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }

    // Engine::check on decoded traces: the clean report drops its
    // trace's arena, the buggy one keeps it — and still renders once
    // the reader and the decoded trace are gone.
    Report clean;
    Report buggy;
    {
        auto reader = TraceFileReader::open(path);
        ASSERT_TRUE(reader);
        Engine engine(ModelKind::X86);
        DecodedTrace decoded;
        ASSERT_TRUE(reader->decode(0, &decoded));
        clean = engine.check(decoded.trace);
        ASSERT_TRUE(reader->decode(1, &decoded));
        buggy = engine.check(decoded.trace);
    }
    EXPECT_TRUE(clean.clean());
    EXPECT_TRUE(clean.arenas().empty());
    ASSERT_EQ(buggy.failCount(), 1u);
    EXPECT_EQ(buggy.arenas().size(), 1u);
    EXPECT_NE(buggy.str().find("checker.cc:9"), std::string::npos)
        << buggy.str();

    // Through ingest, the aggregate keeps only the buggy trace's.
    Report merged;
    {
        std::string error;
        auto source =
            openTraceSource(path, IngestMode::Auto, 0, &error);
        ASSERT_TRUE(source) << error;
        PoolOptions options;
        options.workers = 2;
        EnginePool pool(options);
        IngestOptions ingest_options;
        ingest_options.decoders = 2;
        ASSERT_TRUE(
            ingest(*source, pool, ingest_options, nullptr, nullptr));
        merged = pool.takeResults();
    }
    std::remove(path.c_str());
    EXPECT_EQ(merged.arenas().size(), 1u);
    ASSERT_EQ(merged.failCount(), 1u);
    EXPECT_NE(merged.str().find("checker.cc:9"), std::string::npos)
        << merged.str();
}

TEST(TraceIngestTest, CorruptLastOpFailsWithoutPartialFindings)
{
    // Trace 1 spans several decode windows and has a finding in its
    // first window; only its very last op is corrupt (a file index
    // outside its string table), which open-time validation cannot
    // see. The run must fail with the usual error, trace 1 must add
    // no finding, and trace 0's finding stays. Trace 0 is the longer
    // multi-window trace, so longest-first claiming still checks it
    // before trace 1 fails the run.
    const std::string path = tmpPath("corrupt_last_op");
    {
        const auto padded = [](uint64_t id, size_t ops) {
            Trace t = buggyTrace(id);
            while (t.size() < ops)
                t.append(
                    PmOp::sfence(SourceLocation("workload.cc", 44)));
            return t;
        };
        std::vector<Trace> traces{
            padded(0, 3 * TraceConsumer::kWindowOps),
            padded(1, 2 * TraceConsumer::kWindowOps + 100)};
        ASSERT_TRUE(saveTracesToFile(path, traces));
        // The last op record ends where the index begins.
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekg(0, std::ios::end);
        const std::streamoff index_offset =
            static_cast<std::streamoff>(f.tellg()) -
            static_cast<std::streamoff>(TraceWire::kFooterBytes +
                                        2 * TraceWire::kIndexEntryBytes);
        f.seekp(index_offset -
                static_cast<std::streamoff>(OpCursor::kOpBytes) + 1);
        const uint32_t bogus = 7;
        f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    }

    for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
        for (const size_t decoders : {size_t{1}, size_t{2}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " decoders=" + std::to_string(decoders));
            std::string open_error;
            auto source =
                openTraceSource(path, IngestMode::Auto, 0, &open_error);
            ASSERT_TRUE(source) << open_error;
            PoolOptions pool_options;
            pool_options.workers = workers;
            EnginePool pool(pool_options);
            IngestOptions options;
            options.decoders = decoders;
            SourceError error;
            EXPECT_FALSE(ingest(*source, pool, options, nullptr, &error));
            EXPECT_EQ(error.str(), path + ": trace #1: corrupt trace "
                                          "body (decode failed)");
            const Report merged = pool.takeResults();
            ASSERT_EQ(merged.findings().size(), 1u) << merged.str();
            EXPECT_EQ(merged.findings()[0].traceId, 0u);
            const PoolStats stats = pool.stats();
            EXPECT_EQ(stats.tracesSubmitted, 1u);
            EXPECT_EQ(stats.tracesCompleted, 1u);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIngestTest, DuplicateTraceIdsGiveOneOrderAtEveryWorkerCount)
{
    // 400 traces share one trace id and each fails at op 2, on its
    // own line, so only the trace index within the file can order
    // the tied findings. Every worker count, run after run, must
    // print and write the serial run's bytes.
    const std::string path = tmpPath("duplicate_ids");
    const std::string report_path = tmpPath("duplicate_ids_report");
    {
        std::vector<Trace> traces;
        for (uint64_t i = 0; i < 400; i++) {
            Trace t(7, 0);
            t.append(PmOp::write(0x1000 + 64 * i, 64,
                                 SourceLocation("workload.cc", 42)));
            t.append(PmOp::sfence(SourceLocation("workload.cc", 43)));
            t.append(PmOp::isPersist(0x1000 + 64 * i, 64,
                                     SourceLocation("checker.cc", 9)));
            traces.push_back(std::move(t));
        }
        ASSERT_TRUE(saveTracesToFile(path, traces));
    }
    const auto slurp = [](const std::string &file) {
        std::ifstream in(file, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    // stdout past its header line, which names the worker count.
    const auto findingLines = [](const std::string &text) {
        return text.substr(text.find('\n') + 1);
    };

    std::string want_stdout;
    std::string want_report;
    for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
        for (int run = 0; run < 10; run++) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " run " + std::to_string(run));
            CheckPlan plan;
            plan.inputArgs = {path};
            plan.workers = workers;
            plan.maxFindings = 1000;
            plan.reportOutPath = report_path;
            std::string error;
            ASSERT_TRUE(plan.finalize(&error)) << error;
            testing::internal::CaptureStdout();
            const int exit_code = runCheckTool(plan);
            const std::string out =
                findingLines(testing::internal::GetCapturedStdout());
            ASSERT_EQ(exit_code, 1);
            const std::string report = slurp(report_path);
            if (want_stdout.empty()) {
                ASSERT_NE(out.find("400 FAIL"), std::string::npos) << out;
                want_stdout = out;
                want_report = report;
            }
            ASSERT_EQ(out, want_stdout);
            ASSERT_EQ(report, want_report);
        }
    }
    std::remove(path.c_str());
    std::remove(report_path.c_str());
}

TEST(TraceIngestTest, MixedLengthSetGivesOneReportAtEveryWorkerCount)
{
    // Two files mixing multi-window traces (claimed longest first,
    // merged across the files) with single-window ones (claimed in
    // index order), every trace with findings. Every worker count,
    // run after run, must print and write the serial run's bytes.
    const auto rounds = [](uint64_t id, size_t count) {
        Trace t(id, 0);
        for (size_t i = 0; i < count; i++) {
            const uint64_t addr = 0x1000 + 64 * ((id * 13 + i) % 512);
            t.append(PmOp::write(addr, 64,
                                 SourceLocation("mixed.cc", 10)));
            // Every fifth round skips its writeback: a FAIL.
            if (i % 5 != 0)
                t.append(PmOp::clwb(addr, 64,
                                    SourceLocation("mixed.cc", 11)));
            t.append(PmOp::sfence(SourceLocation("mixed.cc", 12)));
            t.append(PmOp::isPersist(addr, 64,
                                     SourceLocation("mixed.cc", 13)));
        }
        return t;
    };
    // A round is about 3.8 ops: 600 rounds span two windows.
    const std::vector<std::vector<size_t>> lengths{
        {20, 1500, 3, 600, 2600, 40}, {2600, 7, 900, 1, 1500}};
    std::vector<std::string> paths;
    for (size_t f = 0; f < lengths.size(); f++) {
        const std::string tag = "mixed_" + std::to_string(f);
        paths.push_back(tmpPath(tag.c_str()));
        std::vector<Trace> traces;
        for (size_t i = 0; i < lengths[f].size(); i++)
            traces.push_back(rounds(i, lengths[f][i]));
        ASSERT_TRUE(saveTracesToFile(paths.back(), traces));
    }
    const std::string report_path = tmpPath("mixed_report");
    const auto slurp = [](const std::string &file) {
        std::ifstream in(file, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    // stdout past its header line, which names the worker count.
    const auto findingLines = [](const std::string &text) {
        return text.substr(text.find('\n') + 1);
    };

    std::string want_stdout;
    std::string want_report;
    for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
        for (int run = 0; run < 10; run++) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " run " + std::to_string(run));
            CheckPlan plan;
            plan.inputArgs = paths;
            plan.workers = workers;
            plan.maxFindings = 100000;
            plan.reportOutPath = report_path;
            std::string error;
            ASSERT_TRUE(plan.finalize(&error)) << error;
            testing::internal::CaptureStdout();
            const int exit_code = runCheckTool(plan);
            const std::string out =
                findingLines(testing::internal::GetCapturedStdout());
            ASSERT_EQ(exit_code, 1);
            const std::string report = slurp(report_path);
            if (want_stdout.empty()) {
                ASSERT_NE(out.find("FAIL"), std::string::npos) << out;
                want_stdout = out;
                want_report = report;
            }
            ASSERT_EQ(out, want_stdout);
            ASSERT_EQ(report, want_report);
        }
    }
    for (const std::string &path : paths)
        std::remove(path.c_str());
    std::remove(report_path.c_str());
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

    // The pull path — every worker and decoder claims traces from
    // the one shared cursor — at every decoder/worker width, inline
    // pools included, over the same file + capture source: identical
    // canonical reports and counters.
    std::string first_report;
    for (const size_t decoders : {size_t{1}, size_t{2}, size_t{4}}) {
        for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
            SCOPED_TRACE("decoders=" + std::to_string(decoders) +
                         " workers=" + std::to_string(workers));
            std::string error;
            std::vector<std::unique_ptr<TraceSource>> children;
            children.push_back(
                openTraceSource(path_a, IngestMode::Auto, 0, &error));
            ASSERT_TRUE(children.back()) << error;
            // A closed capture source as the second child (fileId
            // 1): its traces live in memory, not in a mapping.
            auto capture =
                std::make_unique<CaptureTraceSource>("<capture>", 1);
            capture->push(buggyTrace(0));
            capture->close();
            children.push_back(std::move(capture));
            MultiTraceSource combined(std::move(children));

            PoolOptions pool_options;
            pool_options.workers = workers;
            EnginePool pool(pool_options);
            IngestOptions options;
            options.decoders = decoders;
            IngestStats stats;
            SourceError source_error;
            ASSERT_TRUE(
                ingest(combined, pool, options, &stats, &source_error))
                << source_error.str();
            EXPECT_TRUE(stats.active);
            EXPECT_EQ(stats.sources, 2u);
            EXPECT_EQ(stats.tracesDecoded, 3u);
            // The capture child's count is unknown, so the team is
            // not clamped to the three traces.
            EXPECT_EQ(stats.decoders, decoders);
            // The capture child is not mmap-backed, so neither is the
            // composite.
            EXPECT_FALSE(stats.mmapBacked);
            // The pool carries the same counters, so one stats()
            // snapshot (the metrics publisher's pool sample) covers
            // ingest too.
            const PoolStats pool_stats = pool.stats();
            EXPECT_TRUE(pool_stats.valid);
            EXPECT_TRUE(pool_stats.ingest.active);
            EXPECT_EQ(pool_stats.ingest.tracesDecoded,
                      stats.tracesDecoded);
            EXPECT_EQ(pool_stats.ingest.sources, stats.sources);
            EXPECT_EQ(pool_stats.ingest.decoders, stats.decoders);

            // Claimed traces count as submitted and completed, and
            // the per-thread counters cover every checking thread.
            EXPECT_EQ(pool_stats.tracesSubmitted, 3u);
            EXPECT_EQ(pool_stats.tracesCompleted, 3u);
            uint64_t per_thread = 0;
            for (const WorkerStats &w : pool_stats.workers)
                per_thread += w.tracesChecked;
            EXPECT_EQ(per_thread, 3u);

            Report merged = pool.results();
            EXPECT_EQ(pool.tracesChecked(), 3u);
            merged.canonicalize();
            ASSERT_EQ(merged.failCount(), 3u);
            // Canonical order is (fileId, traceId): file 0's traces
            // 0, 1 first, then file 1's trace 0 — even though its
            // traceId ties with file 0's first trace.
            ASSERT_EQ(merged.findings().size(), 3u);
            EXPECT_EQ(merged.findings()[0].fileId, 0u);
            EXPECT_EQ(merged.findings()[0].traceId, 0u);
            EXPECT_EQ(merged.findings()[1].fileId, 0u);
            EXPECT_EQ(merged.findings()[1].traceId, 1u);
            EXPECT_EQ(merged.findings()[2].fileId, 1u);
            EXPECT_EQ(merged.findings()[2].traceId, 0u);

            // Widths must not change a byte of the canonical report.
            if (first_report.empty())
                first_report = merged.str();
            EXPECT_EQ(merged.str(), first_report);
        }
    }

    std::remove(path_a.c_str());
}

} // namespace
} // namespace pmtest::core
