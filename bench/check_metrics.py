#!/usr/bin/env python3
"""Validate pmtest live observability outputs in CI.

Three modes, one per output format:

  --prom FILE    Prometheus text exposition scraped from /metrics:
                 every line must parse, and the gauge/rate families
                 the dashboard depends on must be present.
  --json FILE    pmtest-metrics-v2 document: from /metrics.json with
                 --live (requires "live": true), or a --metrics-json
                 exit document without it (requires "run" and
                 "verdict"); both need the same gauges/rates/telemetry.
  --events FILE  structured JSONL event log from --event-log: every
                 record must carry the envelope fields, and every
                 run, failed ones too, must be bracketed by run_start
                 (first event) and run_stop (last event).

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import re
import sys

SAMPLE_RE = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*'         # metric name
    r'(\{[^{}]*\})?'                     # optional label set
    r' -?[0-9.eE+]+(inf|nan)?$'          # sample value
)

REQUIRED_PROM = [
    "pmtest_snapshot_nanoseconds",
    "pmtest_traces_checked_total",
    "pmtest_pool_inflight_traces",
    "pmtest_pool_queued_traces",
    "pmtest_ingest_traces_consumed",
    "pmtest_ingest_bytes_consumed",
    "pmtest_process_resident_bytes",
    "pmtest_traces_checked_per_second",
    "pmtest_ingest_bytes_per_second",
]

# Keys every pmtest-metrics-v2 document carries, live or exit.
REQUIRED_JSON = {
    "gauges.pool": ["valid", "in_flight", "queued_traces",
                    "traces_completed", "workers"],
    "gauges.ingest": ["valid", "traces_consumed", "bytes_consumed",
                      "sources"],
    "gauges.process": ["rss_bytes", "heap_bytes"],
    "rates": ["traces_checked_per_sec", "bytes_consumed_per_sec"],
    "telemetry": ["compiled", "counters", "stages"],
}

EVENT_ENVELOPE = ["ts_ms", "mono_ns", "severity", "type"]


def fail(msg):
    print(f"check_metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def check_prom(path):
    names = set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not SAMPLE_RE.match(line):
                fail(f"{path}:{lineno}: unparsable sample: {line!r}")
            names.add(re.split(r"[ {]", line, 1)[0])
    for required in REQUIRED_PROM:
        if required not in names:
            fail(f"{path}: missing metric family {required}")
    print(f"{path}: {len(names)} metric families OK")


def check_json(path, live):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "pmtest-metrics-v2":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if not isinstance(doc.get("snapshot_ns"), int):
        fail(f"{path}: snapshot_ns missing or not an integer")
    for block, keys in REQUIRED_JSON.items():
        obj = doc
        for part in block.split("."):
            obj = obj.get(part) if isinstance(obj, dict) else None
        if not isinstance(obj, dict):
            fail(f"{path}: {block} object missing")
        for key in keys:
            if key not in obj:
                fail(f"{path}: {block}.{key} missing")
    if doc.get("live") is not live:
        fail(f"{path}: live is {doc.get('live')!r}, expected {live}")
    if live and doc["gauges"]["process"]["rss_bytes"] <= 0:
        fail(f"{path}: gauges.process.rss_bytes not positive")
    if not live:
        for block in ("run", "verdict"):
            if not isinstance(doc.get(block), dict):
                fail(f"{path}: {block} object missing")
    print(f"{path}: pmtest-metrics-v2 OK" +
          (" (live)" if live else " (exit)"))


# A finding event carries its verdict, identity and evidence: the
# cause (message template), the two ranges and two epochs that decided
# it, and the message rendered from them.
FINDING_KEYS = ("verdict", "kind", "trace_id", "op_index", "cause",
                "message", "range_a", "range_b", "epoch_a", "epoch_b")


def check_events(path):
    types = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            for key in EVENT_ENVELOPE:
                if key not in record:
                    fail(f"{path}:{lineno}: missing {key!r}")
            if record["severity"] not in ("info", "warn", "error"):
                fail(f"{path}:{lineno}: bad severity "
                     f"{record['severity']!r}")
            if record["type"] == "finding":
                for key in FINDING_KEYS:
                    if key not in record:
                        fail(f"{path}:{lineno}: finding missing "
                             f"{key!r}")
                for key in ("range_a", "range_b"):
                    rng = record[key]
                    if (not isinstance(rng, dict) or
                            not isinstance(rng.get("addr"), int) or
                            not isinstance(rng.get("size"), int)):
                        fail(f"{path}:{lineno}: finding {key} is not "
                             f"an {{addr, size}} object")
                for key in ("epoch_a", "epoch_b"):
                    if not isinstance(record[key], int):
                        fail(f"{path}:{lineno}: finding {key} is not "
                             f"an integer")
            types.append(record["type"])
    if not types:
        fail(f"{path}: no events")
    if types[0] != "run_start":
        fail(f"{path}: first event is {types[0]!r}, not run_start")
    if types[-1] != "run_stop":
        fail(f"{path}: last event is {types[-1]!r}, not run_stop")
    print(f"{path}: {len(types)} events OK "
          f"({len(set(types))} distinct types)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prom", help="Prometheus exposition file")
    parser.add_argument("--json", dest="json_path",
                        help="pmtest-metrics-v2 document")
    parser.add_argument("--live", action="store_true",
                        help="--json is a live /metrics.json document")
    parser.add_argument("--events", help="JSONL event log")
    args = parser.parse_args()
    if not (args.prom or args.json_path or args.events):
        parser.error("nothing to check")
    if args.prom:
        check_prom(args.prom)
    if args.json_path:
        check_json(args.json_path, args.live)
    if args.events:
        check_events(args.events)


if __name__ == "__main__":
    main()
