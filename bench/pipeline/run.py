#!/usr/bin/env python3
"""Build and run bench_pipeline, PMTest's end-to-end benchmark.

Three modes (README.md has the metric dictionary):

  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One workload in one bench_pipeline process. Prints
      "workload metric value unit" lines, then, as the last line, one
      JSON object with the keys correct, attempted, failed and metrics.
      --trace 0 reports the end-to-end metrics, --trace 1 the
      per-layer ones.

  run.py [--seed N] [--seconds S] [--runs K] [--traced] [--out PATH]
      Every workload, K runs each with seeds N..N+K-1 (plus one traced
      run each with --traced). Prints every metric's median, writes
      BENCH_pipeline.json, and exits 1 on any wrong verdict.

  run.py --compare A.json B.json
      For each workload and metric in two BENCH_pipeline.json files:
      the change of the median from A to B next to the BENCHMARK.json
      bound, flagged regressed, improved, unresolved or ok. Exits 1 if
      anything regressed.

The benchmark is built from source on first use into .bench_build/ at
the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "pipeline"
WORKLOADS = [
    "offline_small_set",
    "offline_large_sparse",
    "offline_bug_dense",
    "online_kv",
]
# The thread layout must come from core detection, as a default
# pmtest_check run gets it.
SCRUBBED_ENV = (
    "PMTEST_WORKERS",
    "PMTEST_DECODERS",
    "PMTEST_QUEUE_CAP",
    "PMTEST_BENCH_SCALE",
)
RUN_TIMEOUT_S = 170
# Set-up differences below this many seconds are timer noise, not a
# regression, whatever their relative size.
SETUP_FLOOR_S = 0.05


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_definition():
    """BENCHMARK.json at the repository root, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def build():
    """Configure and (re)build bench_pipeline; return its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_pipeline",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("run.py: building bench_pipeline failed")
            sys.exit(2)
    return BUILD / "bench_pipeline"


def run_workload(binary, workload, seed, seconds, traced):
    """One bench_pipeline process; its result object, or None."""
    work_dir = BUILD / "work" / f"{workload}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work_dir}"]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: {workload} failed with exit code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def expected_metrics(definition, traced):
    key = "per_layer" if traced else "end_to_end"
    return {m["name"] for m in definition[key]}


def run_single(args, definition):
    binary = build()
    traced = args.trace == 1
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          traced)
    if result is None:
        return 2
    if definition and set(result["metrics"]) != expected_metrics(
            definition, traced):
        log("run.py: bench_pipeline's metrics differ from BENCHMARK.json")
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def git_rev():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    toplevel, rev = top.stdout.split()
    return rev if Path(toplevel).resolve() == ROOT else "unknown"


def run_all(args, definition):
    binary = build()
    doc = {"schema": "pmtest-bench-pipeline-v1", "git_rev": git_rev(),
           "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
           "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plan = [(args.seed + i, False) for i in range(args.runs)]
        if args.traced:
            plan.append((args.seed, True))
        entry = {"attempted": 0, "failed": 0, "metrics": {}, "info": []}
        for seed, traced in plan:
            log(f"run.py: {workload} seed {seed}"
                f"{' traced' if traced else ''}")
            result = run_workload(binary, workload, seed, args.seconds,
                                  traced)
            if result is None:
                return 2
            doc.setdefault("hardware_concurrency",
                           result["hardware_concurrency"])
            doc.setdefault("layout", result["layout"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["info"].append(dict(result["info"], seed=seed,
                                      traced=traced))
            for name, metric in result["metrics"].items():
                slot = entry["metrics"].setdefault(
                    name, {"unit": metric["unit"], "values": []})
                slot["values"].append(metric["value"])
        for slot in entry["metrics"].values():
            slot["median"] = statistics.median(slot["values"])
        entry["verdict_mismatch_frac"] = (entry["failed"] /
                                          entry["attempted"])
        entry["correct"] = entry["failed"] == 0
        ok = ok and entry["correct"]
        doc["workloads"][workload] = entry
        for name, slot in entry["metrics"].items():
            print(f"{workload} {name} {slot['median']} {slot['unit']}")
        print(f"{workload} verdict_mismatch_frac "
              f"{entry['verdict_mismatch_frac']} ratio", flush=True)
        check_residual(workload, entry)

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"run.py: wrote {args.out}")
    return 0 if ok else 1


def check_residual(workload, entry):
    """The traced stages must account for the traced pass wall time."""
    metrics = entry["metrics"]
    if "pipeline.residual_ms" not in metrics:
        return
    residual = metrics["pipeline.residual_ms"]["median"]
    wall = metrics["pipeline.wall_ms"]["median"]
    if not 0 <= residual <= 0.1 * wall:
        log(f"run.py: {workload}: pipeline residual {residual} ms is "
            f"outside [0, 10%] of the traced wall {wall} ms")


def spread(values, median):
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def judge(a, b, better, bound, setup):
    """Flag one metric's change from run set a to run set b."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1 if better == "higher" else -1
    change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0 = better
    noise = max(spread(a, ma), spread(b, mb))
    b_wins = all(sign * (y - x) > 0 for x in a for y in b)
    a_wins = all(sign * (x - y) > 0 for x in a for y in b)
    if bound is None:
        return change, noise, "-"
    if b_wins and change > noise:
        return change, noise, "improved"
    worse = -change > bound and not (setup and abs(mb - ma) <
                                     SETUP_FLOOR_S)
    if worse:
        return change, noise, ("regressed" if a_wins or noise <= bound
                               else "unresolved")
    if noise > bound and not b_wins:
        return change, noise, "unresolved"
    return change, noise, "ok"


def compare(paths, definition):
    if definition is None:
        log("run.py: --compare needs BENCHMARK.json at the repo root")
        return 2
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    rules = {m["name"]: (m["better"], m.get("bound"))
             for key in ("end_to_end", "per_layer")
             for m in definition[key]}
    print(f"{'workload':<22} {'metric':<26} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  flag")
    regressed = False
    for workload, a_entry in docs[0]["workloads"].items():
        b_entry = docs[1]["workloads"].get(workload)
        if b_entry is None:
            continue
        for name, a_metric in a_entry["metrics"].items():
            if name not in b_entry["metrics"] or name not in rules:
                continue
            better, bound = rules[name]
            a_values = a_metric["values"]
            b_values = b_entry["metrics"][name]["values"]
            change, noise, flag = judge(a_values, b_values, better, bound,
                                        name == "setup_s")
            regressed = regressed or flag == "regressed"
            bound_text = "-" if bound is None else f"{bound:.0%}"
            print(f"{workload:<22} {name:<26} "
                  f"{statistics.median(a_values):>12.4g} "
                  f"{statistics.median(b_values):>12.4g} "
                  f"{change:>+8.1%} {bound_text:>6} {noise:>7.1%}  {flag}")
    print("change: + is better; spread: the wider interquartile range "
          "of the two sides as a share of its median")
    return 1 if regressed else 0


def main():
    definition = load_definition()
    default_seconds = definition["run_seconds"] if definition else 10
    parser = argparse.ArgumentParser(
        description="Build and run bench_pipeline (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.runs < 1:
        parser.error("--seed and --seconds must be >= 0, --runs >= 1")
    if args.compare:
        return compare(args.compare, definition)
    if args.workload:
        return run_single(args, definition)
    return run_all(args, definition)


if __name__ == "__main__":
    sys.exit(main())
