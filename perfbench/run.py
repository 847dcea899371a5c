#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs a workload.

    python3 perfbench/run.py --workload cold-reduce --seed 1 --seconds 30 --trace 0

Workloads: cold-reduce, cold-branch, serve-mixed, or `all` (each in turn).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).

Spread report: `--repeat N` runs the workload N times with seeds
seed, seed+1, ... and prints, per metric, the median, the quartiles and the
quartile spread as a share of the median.

The harness is built with CMake into .bench_build/perfbench at the root of
the checkout; everything the benchmark writes stays under .bench_build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("cold-reduce", "cold-branch", "serve-mixed")
# One run must finish within 180 s; leave room for start-up and the
# incremental build check.
RUN_TIMEOUT_S = 165


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no fairclique sources next to perfbench/; "
            "run from a repository checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(HARNESS)


def run_once(workload, seed, seconds, trace):
    """Runs the harness; returns (exit code, stdout lines, parsed result)."""
    command = [HARNESS, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload,
                                                          RUN_TIMEOUT_S))
        return 3, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None and proc.returncode == 0:
        log("perfbench: harness printed no result line")
        return 1, lines, None
    return proc.returncode, lines, result


def spread_report(workload, results):
    """Per metric: median, quartiles and (q3 - q1) / median over the runs."""
    names = list(results[0]["metrics"].keys())
    report = {}
    print("# spread over %d runs of %s" % (len(results), workload))
    print("# %-44s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3",
                                          "spread"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        report[name] = {"median": median, "q1": q1, "q3": q3,
                        "spread": spread, "values": values,
                        "unit": results[0]["metrics"][name]["unit"]}
        print("# %-44s %14.4f %14.4f %14.4f %9.4f" % (name, median, q1, q3,
                                                      spread))
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seeds seed..seed+N-1); "
                             "N > 1 prints the spread report")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 2
    log("perfbench: harness ready after %.1f s" % (time.monotonic() - started))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = max(1, args.repeat)
    single = runs == 1 and len(workloads) == 1
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(args.seed, args.seed + runs):
            code, lines, result = run_once(workload, seed, args.seconds,
                                           args.trace)
            if single:
                # The harness output is the result: its last line is the
                # JSON object the caller parses.
                for line in lines:
                    print(line, flush=True)
            else:
                for line in lines[:-1]:
                    log(line)
            if code != 0 or result is None:
                log("perfbench: %s seed %d failed (exit %d)" %
                    (workload, seed, code))
                return code or 1
            results.append(result)
            if not single:
                print(json.dumps({"workload": workload, "seed": seed,
                                  **result}), flush=True)
        if runs > 1:
            summary[workload] = spread_report(workload, results)
        elif not single:
            summary[workload] = results[0]
    if summary:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
