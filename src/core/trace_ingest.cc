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
 * What the decoder team of one ingest() run shares: the stop flag,
 * the stage counters, and the first error.
 */
struct DecodeTeam
{
    DecodeTeam(size_t batch, SourceError *first_error)
        : batchSize(batch), error(first_error)
    {
    }

    const size_t batchSize;
    SourceError *const error;
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> decodeNanos{0};
    std::atomic<uint64_t> stallNanos{0};
    std::atomic<uint64_t> decoded{0};
    std::mutex errorMutex;
    bool errorSet = false;

    /**
     * Pull @p source in claims of @p chunk traces until it ends, fails,
     * or any decoder failed, handing each full batch to
     * pool.submitBatch. A submit blocks when every worker queue is
     * full — that wait is the ingest backpressure accounted as stall
     * time (an unstalled submit is microseconds).
     */
    void
    drain(TraceSource &source, size_t chunk, EnginePool &pool)
    {
        std::vector<Trace> batch;
        batch.reserve(batchSize);
        auto flush = [&] {
            if (batch.empty())
                return;
            obs::SpanScope span(obs::Stage::IngestSubmit);
            Timer stall;
            pool.submitBatch(std::move(batch));
            stallNanos.fetch_add(stall.elapsedNs(),
                                 std::memory_order_relaxed);
            batch.clear();
            batch.reserve(batchSize);
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
            decodeNanos.fetch_add(timer.elapsedNs(),
                                  std::memory_order_relaxed);
            if (result == TraceSource::Pull::Error) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!errorSet) {
                    errorSet = true;
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
            if (batch.size() >= batchSize)
                flush();
        }
        flush();
    }
};

/** Run @p body on @p width threads: inline for one, else threads. */
template <typename Body>
void
runTeam(size_t width, const Body &body)
{
    if (width == 1) {
        body();
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(width);
    for (size_t d = 0; d < width; d++) {
        threads.emplace_back([&body, d] {
            obs::nameThread("decoder-" + std::to_string(d));
            body();
        });
    }
    for (auto &t : threads)
        t.join();
}

} // namespace

bool
ingest(TraceSource &source, EnginePool &pool,
       const IngestOptions &options, IngestStats *ingest,
       SourceError *error)
{
    DecodeTeam team(std::max<size_t>(1, options.batch), error);
    size_t width = std::max<size_t>(1, options.decoders);

    const size_t count = source.traceCount();
    const bool counted = count != TraceSource::kUnknownCount;
    if (counted)
        width = std::min(width, std::max<size_t>(count, 1));
    // Decoders claim runs of consecutive traces rather than one at a
    // time: fewer shared-cursor bumps inside the source, and each
    // claim decodes into one batch flushed with a single submitBatch
    // — on oversubscribed machines (decoders + workers > cores) that
    // keeps the wakeup rate proportional to batches, not traces. An
    // unknown-count source (live capture) just pulls full batches.
    const size_t chunk =
        counted ? std::max<size_t>(
                      1, std::min(team.batchSize, count / (width * 4) + 1))
                : team.batchSize;
    runTeam(width, [&] { team.drain(source, chunk, pool); });

    // Hand the stage counters to the pool (so its stats() snapshot
    // covers ingest) and to the caller, and flag live progress done.
    const bool ok = !team.failed.load();
    if (ok)
        obs::count(obs::Counter::SourcesIngested, source.sourceCount());
    IngestStats stats;
    stats.active = true;
    stats.mmapBacked = source.mmapBacked();
    stats.decoders = static_cast<uint32_t>(width);
    stats.sources = source.sourceCount();
    stats.bytesMapped = source.sizeBytes();
    stats.tracesDecoded = team.decoded.load();
    stats.decodeNanos = team.decodeNanos.load();
    stats.stallNanos = team.stallNanos.load();
    pool.recordIngest(stats);
    if (ingest)
        *ingest = stats;
    if (options.progress)
        options.progress->done.store(true, std::memory_order_release);
    return ok;
}

} // namespace pmtest::core
