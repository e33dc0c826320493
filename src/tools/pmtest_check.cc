/**
 * @file
 * pmtest_check: command-line offline checker. A thin flag-parsing
 * shell: every flag lands in a core::CheckPlan, and the whole run
 * lifecycle — sources, ingest, engine pool, canonical report, every
 * output surface — is the stage sequence of core::runCheckTool
 * (src/core/check_session.hh, where the behavior is documented).
 *
 * Flags choose the model, the thread counts and the output surfaces:
 * the stdout report (--summary, --quiet, --max-findings, --stats),
 * the pmtest-report-v2 wire report (--report-out), verified fix hints
 * (--fix-hints), and the observability outputs (--metrics-json,
 * --trace-events, --event-log, --metrics-port, --progress).
 *
 * Exit status: 0 when no FAIL findings, 1 when crash-consistency
 * bugs were found, 2 on usage/input errors (malformed flags,
 * unreadable or duplicate inputs, decode failures).
 */

#include <cstdio>
#include <string>

#include "core/check_session.hh"
#include "util/cli.hh"

using namespace pmtest;
using util::CliParser;
using util::CliStatus;

int
main(int argc, char **argv)
{
    core::CheckPlan plan;
    int model = static_cast<int>(core::ModelKind::X86);
    size_t metrics_port = static_cast<size_t>(-1);

    CliParser cli("pmtest_check", "<trace-file-or-dir>...");
    cli.addChoice("--model", &model,
                  {{"x86", static_cast<int>(core::ModelKind::X86)},
                   {"hops", static_cast<int>(core::ModelKind::Hops)},
                   {"arm", static_cast<int>(core::ModelKind::Arm)}},
                  "persistency model to check against (default x86)");
    cli.addFlag("--summary", &plan.summary,
                "one aggregated line per distinct finding");
    cli.addFlag("--quiet", &plan.quiet,
                "suppress the stdout report (beats --summary)");
    cli.addSize("--max-findings", &plan.maxFindings,
                "findings listed before truncating (default 50)");
    cli.addSize("--workers", &plan.workers,
                "engine pool workers (0 = inline checking)");
    cli.addSize("--decoders", &plan.decoders,
                "checking threads besides the pool workers", 1);
    cli.addFlag("--stats", &plan.showStats,
                "print dispatch/ingest counters (wins over --quiet)");
    cli.addString("--metrics-json", &plan.metricsJsonPath,
                  "write the pmtest-metrics-v2 exit document (\"-\" "
                  "= stdout)");
    cli.addString("--trace-events", &plan.traceEventsPath,
                  "write a Chrome trace-event timeline");
    cli.addSize("--span-sample", &plan.spanSample,
                "keep every Nth span per thread (default 1 = all)", 1);
    cli.addOptionalString("--fix-hints", &plan.fixHints,
                          &plan.fixHintsPath,
                          "verify fix hints; write pmtest-fixhints-v1 "
                          "(default stdout)");
    cli.addSize("--metrics-port", &metrics_port,
                "serve /metrics on 127.0.0.1:N (0 = ephemeral)", 0,
                65535);
    cli.addSize("--metrics-interval-ms", &plan.metricsIntervalMs,
                "publisher sampling period (default 1000)", 1);
    cli.addString("--event-log", &plan.eventLogPath,
                  "append structured JSONL events (\"-\" = stdout)");
    cli.addFlag("--progress", &plan.progress,
                "live TTY progress line on stderr");
    cli.addFlag("--metrics-linger", &plan.metricsLinger,
                "keep the scrape endpoint up after the run");
    cli.addString("--report-out", &plan.reportOutPath,
                  "write the pmtest-report-v2 wire report to FILE");
    cli.positionalCount(1);

    const CliStatus status = cli.parse(argc, argv, &plan.inputArgs);
    if (status != CliStatus::Ok)
        return util::cliExitCode(status);
    plan.model = static_cast<core::ModelKind>(model);
    if (metrics_port != static_cast<size_t>(-1))
        plan.metricsPort = static_cast<int32_t>(metrics_port);

    std::string error;
    bool usage_hint = false;
    if (!plan.finalize(&error, &usage_hint)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        if (usage_hint)
            cli.printUsage(stderr);
        return 2;
    }
    return core::runCheckTool(plan);
}
