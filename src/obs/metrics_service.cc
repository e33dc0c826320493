#include "obs/metrics_service.hh"

#include <cstdio>

namespace pmtest::obs
{

bool
MetricsService::start(ServiceOptions options, std::string *error)
{
    stop();

    // Event-log path validation is configuration-independent: the
    // exit-2 contract for unwritable paths must not depend on how the
    // binary was compiled.
    if (!options.eventLogPath.empty() &&
        !eventLog_.open(options.eventLogPath, error))
        return false;

    const bool wants_live = options.metricsPort >= 0 ||
                            options.progress;
#if PMTEST_TELEMETRY_ENABLED
    const bool live = wants_live;
#else
    const bool live = false;
    if (wants_live)
        std::fprintf(stderr,
                     "pmtest: live metrics compiled out "
                     "(PMTEST_TELEMETRY=OFF); --metrics-port/"
                     "--progress ignored\n");
#endif
    if (!live && !options.finalSample)
        return true;

    PublisherOptions po;
    po.intervalMs = options.intervalMs;
    po.stallTicks = options.stallTicks;
    po.tool = options.tool;
    po.progress = live && options.progress;
    po.eventLog = live && eventLog_.active() ? &eventLog_ : nullptr;
    po.poolSampler = std::move(options.poolSampler);
    po.ingestSampler = std::move(options.ingestSampler);
    publisher_ = std::make_unique<MetricsPublisher>(std::move(po));
    if (!live)
        return true;

    if (options.metricsPort >= 0) {
        server_ = std::make_unique<MetricsHttpServer>();
        MetricsPublisher *pub = publisher_.get();
        auto handler = [pub](const std::string &path, std::string *body,
                             std::string *content_type) {
            if (path == "/metrics") {
                *body = pub->renderPrometheus();
                *content_type =
                    "text/plain; version=0.0.4; charset=utf-8";
                count(Counter::MetricsScrapes);
                return true;
            }
            if (path == "/metrics.json") {
                *body = pub->renderJson();
                *content_type = "application/json";
                count(Counter::MetricsScrapes);
                return true;
            }
            return false;
        };
        if (!server_->start(static_cast<uint16_t>(options.metricsPort),
                            std::move(handler), error)) {
            publisher_.reset();
            server_.reset();
            eventLog_.close();
            return false;
        }
        std::fprintf(stderr, "pmtest: serving metrics on "
                             "http://127.0.0.1:%u/metrics\n",
                     static_cast<unsigned>(server_->port()));
    }
    publisher_->start();
    return true;
}

void
MetricsService::freeze()
{
    if (publisher_)
        publisher_->freeze();
}

void
MetricsService::stop()
{
    if (server_) {
        server_->stop();
        server_.reset();
    }
    if (publisher_) {
        publisher_->stop();
        publisher_.reset();
    }
    eventLog_.close();
}

} // namespace pmtest::obs
