#!/usr/bin/env python3
"""Replay benchmark entry point.

Builds the simulator library and the replay runner into
.bench_build/replaybench (configure once; later runs only check that the
build is up to date), then runs one workload:

    python3 replaybench/run.py --workload ycsb-b --seed 1 --seconds 10 --trace 0
    python3 replaybench/run.py --workload all          # every workload in turn
    python3 replaybench/run.py --smoke                 # all workloads, short, every check
    python3 replaybench/run.py --selftest              # checks fail on planted violations

With --trace 0 a run is REPLAYS replays of the workload, one after the
other, each in its own single-threaded process and each replaying half
the simulated time. The host's speed drifts between processes more than
within one, so the rates are the median over the replays, not one
replay's figure. setup_s and peak_rss_mb are medians too; attempted and
failed are totals. The replays must report identical layer counts.
With --trace 1 a run is one replay in one process.

Run it from the root of a checkout. Build output goes to stderr, so the
last line of stdout is the run's JSON result.
"""

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
BUILD_DIR = CHECKOUT / ".bench_build" / "replaybench"
OUT_DIR = BUILD_DIR / "out"
WORKLOADS = ["ycsb-b", "ycsb-a-batched", "tpcc", "sharded-ycsb-b"]
REPLAYS = 2


def run_timeout_s(seconds):
    """Wall-time limit for one run, all its processes together. A run
    replays simulated time sized to take about `seconds` on the reference
    host, plus per process a warm-up, five set-ups, drain and checks
    (about 30 s in all on the slowest workload); the limit leaves room for
    a host several times slower. At 10 s it is 170 s, inside the 180 s a
    benchmark run is allowed."""
    return 110 + 6 * seconds


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").exists():
        fail("simulator sources (src/) not found next to the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        step = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", target]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(argv, timeout_s, capture=False):
    """Runs argv; returns (exit code, stdout if captured)."""
    try:
        out = subprocess.run(argv, timeout=timeout_s, text=True,
                             stdout=subprocess.PIPE if capture else None)
        return out.returncode, out.stdout
    except subprocess.TimeoutExpired:
        print(f"run.py: {argv[0]} exceeded {timeout_s:g} s", file=sys.stderr)
        return 3, None


def run_replays(runner, name, args):
    """Runs REPLAYS untraced replays of one workload and prints their
    combined result. Returns the exit code."""
    deadline = time.monotonic() + run_timeout_s(args.seconds)
    results = []
    counts = set()
    for _ in range(REPLAYS):
        status, out = run([
            runner, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds / REPLAYS), "--trace", "0"],
            max(1.0, deadline - time.monotonic()), capture=True)
        if out:
            sys.stdout.write(out)
        if status not in (0, 1):
            return status
        lines = out.strip().splitlines()
        results.append(json.loads(lines[-1]))
        counts.update(l for l in lines if l.startswith("counts "))
    same = len(counts) == 1
    print(f"check {'determinism':<16s} {'PASS' if same else 'FAIL'}  layer "
          f"counts {'identical' if same else 'differ'} across {REPLAYS} "
          f"replays")
    correct = same and all(r["correct"] for r in results)
    metrics = {}
    for key, metric in results[0]["metrics"].items():
        metrics[key] = {
            "value": statistics.median(r["metrics"][key]["value"]
                                       for r in results),
            "unit": metric["unit"]}
        print(f"metric {key:<28s} {metrics[key]['value']:16.6f} "
              f"{metric['unit']}  (median of {REPLAYS} replays)")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.selftest or args.workload):
        parser.error("give --workload, --smoke or --selftest")

    if args.selftest:
        build("replay_selftest")
        return run([str(BUILD_DIR / "replay_selftest")], run_timeout_s(10))[0]
    build("replay_runner")
    runner = str(BUILD_DIR / "replay_runner")
    if args.smoke:
        return run([runner, "--smoke", "--seed", str(args.seed)],
                   run_timeout_s(10))[0]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        if args.trace == 0:
            code = run_replays(runner, name, args)
        else:
            code = run([
                runner, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "1",
                "--out-dir", str(OUT_DIR)], run_timeout_s(args.seconds))[0]
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
