#!/usr/bin/env python3
"""Steadiness check for the replay benchmark.

For each of two seeds (--seed, then --seed + 1000) and each workload, runs
two sets of N untraced runs, every run on that one seed, so that the sets
differ only by the host's noise. It reports each end-to-end metric's
median and quartiles per set and applies the same rules to every metric
in BENCHMARK.json:

  agreement (exit 1 when broken):
    * every run reports correct = true;
    * the layer counts every run prints are identical across all 2N runs
      of a seed;
    * failed / attempted is identical in both sets;
    * each set's spread, (q3 - q1) / median, is within the bound;
    * the second set's median is not worse than the first's by more than
      the bound.
  steadiness target (exit 2 when only this is missed):
    * each set's spread is below a third of the bound.

It also prints, per metric, the bound the widest spread would justify
(3 x the widest spread, rounded up to 0.01, at most 0.25).

    python3 replaybench/steady.py --runs 10 --seed 1

Run it from the root of a checkout.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(CHECKOUT / "replaybench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=CHECKOUT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    counts = next((l[len("counts "):] for l in lines if l.startswith("counts ")),
                  None)
    return result, counts


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first, second, better):
    """Relative change of `second` against `first`, positive when worse."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    agree = True
    missed_target = []
    widest = {m["name"]: 0.0 for m in metrics}
    for seed in (args.seed, args.seed + 1000):
        for workload in workloads:
            sets = []
            counts = set()
            for _ in range(2):
                runs = []
                for _ in range(args.runs):
                    result, c = run_once(workload, seed, seconds)
                    if not result["correct"]:
                        print(f"FAIL {workload} seed {seed}: correct=false")
                        agree = False
                    runs.append(result)
                    counts.add(c)
                sets.append(runs)
            print(f"\n== {workload} seed {seed}, {args.runs} runs per set")
            same = len(counts) == 1 and None not in counts
            print(f"layer counts identical across {2 * args.runs} runs: "
                  f"{'yes' if same else 'NO'}")
            agree = agree and same
            shares = [sum(r["failed"] for r in runs) /
                      sum(r["attempted"] for r in runs) for runs in sets]
            print(f"failed share per set: {shares[0]:.6g} {shares[1]:.6g}")
            if shares[0] != shares[1]:
                print("FAIL failed share differs between sets")
                agree = False
            for m in metrics:
                name, bound = m["name"], m["bound"]
                medians = []
                for s, runs in enumerate(sets):
                    q1, med, q3 = quartiles(
                        [r["metrics"][name]["value"] for r in runs])
                    spread = (q3 - q1) / med
                    medians.append(med)
                    widest[name] = max(widest[name], spread)
                    flag = ""
                    if spread > bound:
                        flag = "  FAIL spread > bound"
                        agree = False
                    elif spread >= bound / 3:
                        flag = "  above target (bound/3)"
                        missed_target.append(f"{workload} seed {seed} "
                                             f"{name} set {s + 1}")
                    print(f"  {name:18s} set {s + 1}: median {med:.6g} "
                          f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                          f"(bound {bound}){flag}")
                shift = worse_by(medians[0], medians[1], m["better"])
                flag = ""
                if shift > bound:
                    flag = "  FAIL"
                    agree = False
                print(f"  {name:18s} second median worse by {shift:+.4f}{flag}")

    print("\nbound each metric's widest spread would justify (3 x spread):")
    for m in metrics:
        derived = min(0.25, math.ceil(300 * widest[m["name"]]) / 100)
        print(f"  {m['name']:18s} widest spread {widest[m['name']]:.4f} "
              f"-> {derived:.2f} (written {m['bound']})")
    print(f"\nagreement within bounds: {'PASS' if agree else 'FAIL'}")
    cells = 2 * 2 * len(workloads) * len(metrics)
    target = (f"MISSED in {len(missed_target)} of {cells} set spreads"
              if missed_target else "PASS")
    print(f"steadiness target (every spread < bound/3): {target}")
    if not agree:
        return 1
    return 2 if missed_target else 0


if __name__ == "__main__":
    sys.exit(main())
