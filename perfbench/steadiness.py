#!/usr/bin/env python3
"""Repeats benchmark workloads with distinct seeds and prints, per metric,
the median, the quartiles and the run-to-run spread (interquartile range
as a share of the median), next to the metric's bound from
BENCHMARK.json. These numbers are what the bounds are set from.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--trace 0|1] [--workload NAME ...]

A spread is flagged when it is above a third of the metric's bound;
the script exits 1 when any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" %
                 (workload, seed, proc.returncode, proc.stdout[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect answers\n%s" %
                 (workload, seed, proc.stdout[-2000:]))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec, workload, seed, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items())
                if k in bounds)), flush=True)
        print("\n%-16s %-28s %12s %12s %12s %8s %6s" %
              ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in sorted(values.items()):
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = " OVER" if spread > bound else (
                    " high" if spread > bound / 3 else "")
            print("%-16s %-28s %12.5g %12.5g %12.5g %8.3f %6s%s" %
                  (workload, name, q1, med, q3, spread,
                   "" if bound is None else bound, flag), flush=True)
        print()
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
