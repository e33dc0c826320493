#include "core/trace_ingest.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "obs/telemetry.hh"
#include "util/clock.hh"

namespace pmtest::core
{

namespace
{

/**
 * Close one ingest() run after its decoders joined: count the drained
 * sources, hand the stage counters to the pool (so its stats()
 * snapshot covers ingest) and to @p out, and flag the live progress
 * done. @return @p ok.
 */
bool
finishIngest(const TraceSource &source, EnginePool &pool,
             const IngestOptions &options, bool ok, size_t team,
             uint64_t decoded, uint64_t decode_nanos,
             uint64_t stall_nanos, IngestStats *out)
{
    if (ok)
        obs::count(obs::Counter::SourcesIngested,
                   source.sourceCount());
    IngestStats stats;
    stats.active = true;
    stats.mmapBacked = source.mmapBacked();
    stats.decoders = static_cast<uint32_t>(team);
    stats.sources = source.sourceCount();
    stats.bytesMapped = source.sizeBytes();
    stats.tracesDecoded = decoded;
    stats.decodeNanos = decode_nanos;
    stats.stallNanos = stall_nanos;
    pool.recordIngest(stats);
    if (out)
        *out = stats;
    if (options.progress)
        options.progress->done.store(true, std::memory_order_release);
    return ok;
}

/**
 * Pinned placement: decoder d drains child sources d, d+team,
 * d+2*team, ... to completion, submitting each child's traces to
 * worker slot (child index % workers) via submitBatchTo. One shard's
 * traces stay on one engine whose TraceState — shadow chunk layout,
 * map hints — remains warm for that shard's address pattern, instead
 * of every engine touching every shard. Children stamp their own
 * (fileId, traceId) identity and reports canonicalize, so the merged
 * verdict is byte-identical to the shared-cursor path.
 */
bool
ingestPinned(MultiTraceSource &multi, EnginePool &pool,
             const IngestOptions &options, IngestStats *ingest,
             SourceError *error)
{
    auto &children = multi.children();
    const size_t workers = pool.workerCount();
    size_t team = std::max<size_t>(1, options.decoders);
    team = std::min(team, children.size());
    const size_t batch_size = std::max<size_t>(1, options.batch);

    std::atomic<bool> failed{false};
    std::atomic<uint64_t> decode_nanos{0};
    std::atomic<uint64_t> stall_nanos{0};
    std::atomic<uint64_t> decoded{0};
    std::mutex error_mutex;
    bool error_set = false;

    auto drainChild = [&](size_t c) {
        TraceSource &child = *children[c];
        const size_t slot = c % workers;
        std::vector<Trace> batch;
        batch.reserve(batch_size);
        auto flush = [&] {
            if (batch.empty())
                return;
            obs::SpanScope span(obs::Stage::IngestSubmit);
            Timer stall;
            pool.submitBatchTo(slot, std::move(batch));
            stall_nanos.fetch_add(stall.elapsedNs(),
                                  std::memory_order_relaxed);
            batch.clear();
            batch.reserve(batch_size);
        };

        while (!failed.load(std::memory_order_relaxed)) {
            const size_t before = batch.size();
            SourceError local_error;
            TraceSource::Pull result;
            Timer timer;
            {
                obs::SpanScope span(obs::Stage::IngestDecode);
                result = child.pull(batch_size, &batch, &local_error);
            }
            decode_nanos.fetch_add(timer.elapsedNs(),
                                   std::memory_order_relaxed);
            if (result == TraceSource::Pull::Error) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error_set) {
                    error_set = true;
                    if (error)
                        *error = std::move(local_error);
                }
                break;
            }
            if (result == TraceSource::Pull::End)
                break;
            const size_t done = batch.size() - before;
            decoded.fetch_add(done, std::memory_order_relaxed);
            obs::count(obs::Counter::ChunksDecoded);
            obs::count(obs::Counter::TracesDecoded, done);
            if (batch.size() >= batch_size)
                flush();
        }
        flush();
    };

    auto decoderLoop = [&](size_t d) {
        for (size_t c = d; c < children.size(); c += team) {
            if (failed.load(std::memory_order_relaxed))
                break;
            drainChild(c);
        }
    };

    if (team == 1) {
        decoderLoop(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(team);
        for (size_t d = 0; d < team; d++) {
            threads.emplace_back([&decoderLoop, d] {
                obs::nameThread("decoder-" + std::to_string(d));
                decoderLoop(d);
            });
        }
        for (auto &t : threads)
            t.join();
    }

    return finishIngest(multi, pool, options, !failed.load(), team,
                        decoded.load(), decode_nanos.load(),
                        stall_nanos.load(), ingest);
}

} // namespace

bool
ingest(TraceSource &source, EnginePool &pool,
       const IngestOptions &options, IngestStats *ingest,
       SourceError *error)
{
    // Route multi-source inputs through the pinned placement when
    // asked (or when Auto decides it can help). Pinning needs real
    // worker queues to target, so inline pools always share.
    if (auto *multi = dynamic_cast<MultiTraceSource *>(&source)) {
        const bool pinned =
            pool.workerCount() > 0 &&
            (options.affinity == IngestOptions::Affinity::Pinned ||
             (options.affinity == IngestOptions::Affinity::Auto &&
              multi->children().size() >= 2 &&
              pool.workerCount() >= 2));
        if (pinned)
            return ingestPinned(*multi, pool, options, ingest, error);
    }

    const size_t count = source.traceCount();
    const bool counted = count != TraceSource::kUnknownCount;
    size_t team = std::max<size_t>(1, options.decoders);
    if (counted)
        team = std::min(team, std::max<size_t>(count, 1));
    const size_t batch_size = std::max<size_t>(1, options.batch);

    // Decoders claim runs of consecutive traces rather than one at a
    // time: fewer shared-cursor bumps inside the source, and each
    // claim decodes into one batch flushed with a single submitBatch
    // — on oversubscribed machines (decoders + workers > cores) that
    // keeps the wakeup rate proportional to batches, not traces. An
    // unknown-count source (live capture) just pulls full batches.
    const size_t chunk =
        counted ? std::max<size_t>(
                      1, std::min(batch_size, count / (team * 4) + 1))
                : batch_size;

    std::atomic<bool> failed{false};
    std::atomic<uint64_t> decode_nanos{0};
    std::atomic<uint64_t> stall_nanos{0};
    std::atomic<uint64_t> decoded{0};
    std::mutex error_mutex;
    bool error_set = false;

    auto decodeLoop = [&] {
        std::vector<Trace> batch;
        batch.reserve(batch_size);
        auto flush = [&] {
            if (batch.empty())
                return;
            // submitBatch blocks when every worker queue is full —
            // that wait is the ingest backpressure we account as
            // stall time (an unstalled submit is microseconds).
            obs::SpanScope span(obs::Stage::IngestSubmit);
            Timer stall;
            pool.submitBatch(std::move(batch));
            stall_nanos.fetch_add(stall.elapsedNs(),
                                  std::memory_order_relaxed);
            batch.clear();
            batch.reserve(batch_size);
        };

        while (!failed.load(std::memory_order_relaxed)) {
            const size_t before = batch.size();
            SourceError local_error;
            TraceSource::Pull result;
            Timer timer;
            {
                obs::SpanScope span(obs::Stage::IngestDecode);
                result = source.pull(chunk, &batch, &local_error);
            }
            decode_nanos.fetch_add(timer.elapsedNs(),
                                   std::memory_order_relaxed);
            if (result == TraceSource::Pull::Error) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error_set) {
                    error_set = true;
                    if (error)
                        *error = std::move(local_error);
                }
                break;
            }
            if (result == TraceSource::Pull::End)
                break;
            const size_t done = batch.size() - before;
            decoded.fetch_add(done, std::memory_order_relaxed);
            obs::count(obs::Counter::ChunksDecoded);
            obs::count(obs::Counter::TracesDecoded, done);
            if (batch.size() >= batch_size)
                flush();
        }
        flush();
    };

    if (team == 1) {
        decodeLoop();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(team);
        for (size_t d = 0; d < team; d++) {
            threads.emplace_back([&decodeLoop, d] {
                obs::nameThread("decoder-" + std::to_string(d));
                decodeLoop();
            });
        }
        for (auto &t : threads)
            t.join();
    }

    return finishIngest(source, pool, options, !failed.load(), team,
                        decoded.load(), decode_nanos.load(),
                        stall_nanos.load(), ingest);
}

} // namespace pmtest::core
