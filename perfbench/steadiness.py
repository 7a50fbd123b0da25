#!/usr/bin/env python3
"""Steadiness check for the benchmark: interleaved repeat runs.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per (seed, workload) for every workload of
BENCHMARK.json, at its run_seconds, seeds in the outer loop so the
workloads interleave in time, each run with another seed. For every
end-to-end metric of every workload it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above the bound fails the
check; a spread above a third of the bound is marked, as the target is to
stay below it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    values = {w: {} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                      out.returncode, out.stderr[-2000:]), file=sys.stderr)
                failures += 1
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                failures += 1
            print("%s seed %d: correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"],
                result["attempted"],
                " ".join("%s=%.6g" % (name, metric["value"]) for name, metric
                         in result["metrics"].items())), file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    print("%-14s %-16s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    above_bound = 0
    above_target = 0
    for workload in workloads:
        for metric in bench["end_to_end"]:
            vals = values[workload].get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            mark = ""
            if spread > metric["bound"]:
                above_bound += 1
                mark = "  <-- ABOVE BOUND"
            elif spread > metric["bound"] / 3:
                above_target += 1
                mark = "  <-- above bound/3"
            print("%-14s %-16s %14.6g %14.6g %14.6g %8.4f %6.3f%s" % (
                workload, metric["name"], median, q1, q3, spread,
                metric["bound"], mark))
    print("%d failed runs, %d spreads above their bound, "
          "%d more above a third of it" % (failures, above_bound,
                                           above_target))
    return 1 if failures or above_bound else 0


if __name__ == "__main__":
    sys.exit(main())
