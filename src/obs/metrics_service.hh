/**
 * @file
 * MetricsService: the one object a tool owns for its whole live
 * observability surface. Construct it with the parsed flag values,
 * call start() once the gauge samplers exist, freeze() before the
 * sampled pool/sources are destroyed, and stop() (or let the
 * destructor) at exit:
 *
 *   obs::MetricsService service;
 *   obs::ServiceOptions so;
 *   so.tool = "pmtest_check";
 *   so.metricsPort = parsed_port;      // -1 = no server
 *   so.eventLogPath = parsed_path;     // "" = no event log
 *   if (!service.start(so, &error)) →  exit 2 (flag-error contract)
 *
 * start() opens the event log FIRST and fails fast on an unwritable
 * path — that validation happens in every build configuration, so
 * `--event-log=/bad/path` exits 2 even under -DPMTEST_TELEMETRY=OFF.
 * The publisher and HTTP server, by contrast, are gated on
 * PMTEST_TELEMETRY_ENABLED: an OFF build accepts the flags, notes on
 * stderr that live metrics are compiled out, and runs nothing —
 * keeping hot paths and verdicts identical to a run without flags.
 *
 * Routes served: /metrics (Prometheus text exposition) and
 * /metrics.json (the live pmtest-metrics-v2 document). Every served
 * scrape bumps Counter::MetricsScrapes.
 *
 * A run that asks for an exit document (ServiceOptions::finalSample)
 * gets a publisher even without a live surface — and in every build
 * configuration — but no tick thread: freeze() then takes the one
 * sample the document renders. A run that asks for neither builds no
 * publisher and takes no sample at all.
 */

#ifndef PMTEST_OBS_METRICS_SERVICE_HH
#define PMTEST_OBS_METRICS_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/event_log.hh"
#include "obs/metrics_http.hh"
#include "obs/metrics_publisher.hh"

namespace pmtest::obs
{

/** Parsed observability flag values for one tool run. */
struct ServiceOptions
{
    std::string tool = "pmtest";
    int32_t metricsPort = -1;   ///< -1 = no HTTP server; 0 = ephemeral
    uint64_t intervalMs = 1000; ///< publisher tick period
    uint32_t stallTicks = 3;    ///< watchdog threshold, in ticks
    bool progress = false;      ///< --progress TTY line
    std::string eventLogPath;   ///< "" = no event log; "-" = stdout
    /** freeze() samples for an exit document (--metrics-json). */
    bool finalSample = false;
    std::function<PoolStats()> poolSampler;
    std::function<IngestGauges()> ingestSampler;
};

/** Owns the event log, publisher, and scrape server of one run. */
class MetricsService
{
  public:
    MetricsService() = default;
    ~MetricsService() { stop(); }

    MetricsService(const MetricsService &) = delete;
    MetricsService &operator=(const MetricsService &) = delete;

    /**
     * Open the event log, start the publisher, and bind the scrape
     * server. @return false with @p error set ("cannot write <path>",
     * "cannot bind ...") on failure — callers exit 2.
     */
    bool start(ServiceOptions options, std::string *error = nullptr);

    /** The bound scrape port; 0 when no server is running. */
    uint16_t port() const
    {
        return server_ ? server_->port() : 0;
    }

    /** The event log (inactive singleton when --event-log unset). */
    EventLog &eventLog() { return eventLog_; }

    /**
     * The publisher; null before start() and when neither a live
     * surface (in a telemetry build) nor a final sample was asked for.
     */
    MetricsPublisher *publisher() { return publisher_.get(); }

    /**
     * Take the final sample (when there is a publisher) and detach
     * the gauge samplers; the server keeps answering scrapes with the
     * frozen sample. Call before destroying the pool/sources the
     * samplers capture.
     */
    void freeze();

    /** Stop the server and publisher and close the event log. */
    void stop();

  private:
    EventLog eventLog_;
    std::unique_ptr<MetricsPublisher> publisher_;
    std::unique_ptr<MetricsHttpServer> server_;
};

} // namespace pmtest::obs

#endif // PMTEST_OBS_METRICS_SERVICE_HH
