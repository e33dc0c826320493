/**
 * @file
 * MetricsPublisher: the background thread that turns the passive
 * telemetry registry into a live signal. Every tick (default 1 s) it
 *
 *  - snapshots the registry (counters + stage histograms),
 *  - samples **gauges** the registry cannot express — the pool's
 *    PoolStats (queue depths, in-flight traces), ingest progress per
 *    source, process RSS and heap bytes held — through
 *    caller-supplied sampler callbacks (the obs layer links below
 *    core, so core hands in closures over `EnginePool`/`TraceSource`
 *    instead of obs including their headers; see
 *    core/live_gauges.hh),
 *  - computes rates from the delta to the previous tick (well-defined
 *    because MetricsSnapshot carries snapshotNs),
 *  - runs the **stall watchdog**: if the progress counters stop
 *    advancing for `stallTicks` consecutive ticks while work is
 *    outstanding (traces in flight or sources undrained), it warns on
 *    stderr, bumps Counter::WatchdogStalls, and records a
 *    severity-warn event — then re-arms when progress resumes,
 *  - emits `source_eof` events as leaf sources drain,
 *  - optionally repaints a one-line TTY progress display.
 *
 * Scrapes are decoupled from sampling: renderPrometheus()/renderJson()
 * serve the latest published sample under a mutex, so an HTTP scrape
 * never touches the pool or sources directly and is safe at any
 * moment of the run. freeze() takes one final sample and drops the
 * samplers; after it the publisher keeps serving the frozen sample —
 * that is what lets a tool keep its endpoint alive (--metrics-linger)
 * after the pool and sources are destroyed.
 *
 * Under -DPMTEST_TELEMETRY=OFF MetricsService never starts the tick
 * thread; it builds a publisher only to take the final sample of an
 * exit document (--metrics-json), which then reads an all-zero
 * registry snapshot.
 */

#ifndef PMTEST_OBS_METRICS_PUBLISHER_HH
#define PMTEST_OBS_METRICS_PUBLISHER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hh"
#include "obs/metrics_doc.hh"
#include "obs/telemetry.hh"

namespace pmtest::obs
{

/** Configuration for one publisher instance. */
struct PublisherOptions
{
    uint64_t intervalMs = 1000; ///< tick period
    /** Consecutive no-progress ticks before the watchdog fires. */
    uint32_t stallTicks = 3;
    std::string tool = "pmtest";   ///< "tool" field of exports
    bool progress = false;         ///< repaint a TTY line on stderr
    EventLog *eventLog = nullptr;  ///< optional event sink (not owned)
    std::function<PoolStats()> poolSampler;
    std::function<IngestGauges()> ingestSampler;
};

/** Periodic sampling thread + render-side of the live service. */
class MetricsPublisher
{
  public:
    explicit MetricsPublisher(PublisherOptions options);
    ~MetricsPublisher();

    MetricsPublisher(const MetricsPublisher &) = delete;
    MetricsPublisher &operator=(const MetricsPublisher &) = delete;

    /** Start the tick thread. No-op when already running. */
    void start();

    /**
     * Take one final sample, stop the tick thread, and drop the
     * sampler callbacks. Renders keep serving the frozen sample.
     * Call before destroying the pool/sources the samplers capture.
     */
    void freeze();

    /** Stop the tick thread without a final sample. */
    void stop();

    /**
     * Run exactly one sampling tick synchronously on the calling
     * thread (no thread needed). Test hook: drives the watchdog and
     * rate computation deterministically.
     */
    void tickOnceForTest() { tick(); }

    /** Copy of the most recently published sample. */
    GaugeSample latest() const;

    /** Number of watchdog episodes fired so far. */
    uint64_t watchdogFired() const;

    /** Prometheus text exposition of the latest sample. */
    std::string renderPrometheus() const;

    /** Live pmtest-metrics-v2 document of the latest sample. */
    std::string renderJson() const;

  private:
    void tick();
    GaugeSample takeSample();
    void runWatchdog(const GaugeSample &sample);
    void emitSourceEvents(const GaugeSample &sample);
    void paintProgress(const GaugeSample &sample) const;

    PublisherOptions options_;

    mutable std::mutex mutex_; ///< guards latest_/hasPrev_/watchdogFired_
    GaugeSample latest_;
    bool hasPrev_ = false;

    // Watchdog state (tick thread only).
    bool sigValid_ = false;
    uint64_t lastProgressSig_ = 0;
    uint32_t staleTicks_ = 0;
    bool stallActive_ = false;
    uint64_t watchdogFired_ = 0; ///< guarded by mutex_

    // source_eof edge detection (tick thread only).
    std::vector<bool> sourceDrained_;

    std::thread thread_;
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    bool stopRequested_ = false; ///< guarded by wakeMutex_
    bool running_ = false;
};

} // namespace pmtest::obs

#endif // PMTEST_OBS_METRICS_PUBLISHER_HH
