#!/usr/bin/env python3
"""Run-to-run spread and drift of the end-to-end metrics on one workload.

    python3 perfbench/spread.py --workload paper_grid

Runs perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds once per
seed 1..10, then runs the same ten seeds again. For each end-to-end metric
it prints each set's median and spread (the distance between the first
and third quartile, statistics.quantiles(values, n=4), as a share of the
median) and how far the second set's median moved from the first's. It
exits 1 unless every spread is below a third of the metric's bound and no
second median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_set(label, workload, bench):
    """One run per seed; returns {metric name: [value per seed]}."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"set {label} seed {seed}: run failed "
                     f"(exit {proc.returncode})")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"set {label} seed {seed}: " + " ".join(
            f"{name}={vals[-1]:.6g}" for name, vals in values.items()),
              flush=True)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    sets = {label: run_set(label, args.workload, bench) for label in "AB"}
    steady = True
    for m in bench["end_to_end"]:
        line = f"{m['name']:18}"
        medians = []
        for label, values in sets.items():
            q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / median
            ok = spread < m["bound"] / 3
            steady = steady and ok
            medians.append(median)
            line += (f" {label}: median {median:10.6g} spread {spread:6.2%}"
                     f"{'' if ok else ' WIDE'}")
        change = medians[1] / medians[0] - 1
        worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"]
        steady = steady and ok
        print(f"{line}  B/A {change:+7.2%}{'' if ok else ' DRIFT'}"
              f"  {m['unit']}, bound {m['bound']:.0%}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
