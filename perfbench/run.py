#!/usr/bin/env python3
"""Builds and runs the nlarm pipeline benchmark.

    python3 perfbench/run.py --workload tick_v2048 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into .bench_build/
on first use, runs one workload and prints, as the last line of standard
output, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload is run untraced and then traced with the same seed, the metrics are
the per-layer ones, and `trace.overhead_pct` is the traced run's wall time
over the untraced one's.

    --workload all     runs every workload in turn (one summary line)
    --self-check       runs the workload twice with the seed and fails when
                       any count that must repeat per seed differs
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "nlarm_pipeline_bench")
WORKLOADS = ["tick_v2048", "admit_v256", "burst_v256"]
RUN_TIMEOUT_S = 170

# Counts that depend only on the seed (and --seconds).
DETERMINISTIC_COUNTS = [
    "monitor.store.writes",
    "monitor.delta.dirty_nodes",
    "monitor.delta.dirty_pairs",
    "monitor.delta_log.frames",
    "monitor.delta_log.full_frames",
    "core.broker.incremental_applies",
    "obs.audit.records",
    "core.serve.replay_cache_hits",
]


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "nlarm_pipeline_bench", "-j", jobs])
    for step in steps:
        code = subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            sys.exit("build failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, deadline):
    """Runs one workload; echoes its report and returns (exit code, RESULT)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", RUN_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("%s timed out" % workload)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        sys.exit("%s exited %d without a result" % (workload, proc.returncode))
    return proc.returncode, result


def measure(workload, seed, seconds, trace, deadline):
    """One benchmark result for a workload, in the contract's shape."""
    if not trace:
        code, result = run_binary(workload, seed, seconds, False, deadline)
        return code, result, result["metrics"]
    code, plain = run_binary(workload, seed, seconds, False, deadline)
    if code != 0:
        return code, plain, plain["metrics"]
    code, traced = run_binary(workload, seed, seconds, True, deadline)
    layers = dict(traced["layers"])
    overhead = 100.0 * (traced["run_wall_s"] / plain["run_wall_s"] - 1.0)
    layers["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print("  %-38s %14.4f %-12s traced minus untraced run wall time"
          % ("trace.overhead_pct", overhead, "%"))
    return code, traced, layers


def self_check(workload, seed, seconds, deadline):
    counts = []
    for _ in range(2):
        code, result = run_binary(workload, seed, seconds, True, deadline)
        if code != 0:
            return code
        counts.append({k: result["layers"][k]["value"]
                       for k in DETERMINISTIC_COUNTS})
    differing = [k for k in DETERMINISTIC_COUNTS if counts[0][k] != counts[1][k]]
    for key in DETERMINISTIC_COUNTS:
        print("self-check %-34s %s" % (key, counts[0][key] if key not in differing
                                       else "%s != %s" % (counts[0][key], counts[1][key])))
    print("self-check %s seed %d: %s" % (workload, seed,
                                        "FAIL" if differing else "PASS"))
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    os.makedirs(RUN_DIR, exist_ok=True)
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.self_check:
        codes = [self_check(w, args.seed, args.seconds,
                            time.monotonic() + 2 * RUN_TIMEOUT_S)
                 for w in workloads]
        sys.exit(max(codes))

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        code, result, metrics = measure(workload, args.seed, args.seconds,
                                        bool(args.trace), deadline)
        worst = max(worst, code)
        summary["correct"] = summary["correct"] and bool(result["correct"])
        summary["attempted"] += int(result["attempted"])
        summary["failed"] += int(result["failed"])
        if len(workloads) == 1:
            summary["metrics"] = metrics
        else:
            for name, metric in metrics.items():
                summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
