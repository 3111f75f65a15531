#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--out perfbench/steadiness.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0, seeds
1..runs, and records for every end-to-end metric the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A run
that fails or reports correct=false stops the measurement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, proc.returncode, proc.stdout))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"runs": args.runs, "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in record["seeds"]:
            result = run_once(workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            print("%-17s %-12s median %-12.6g spread %.3f (bound %s)" %
                  (workload, name, med, spread, bounds.get(name)), flush=True)
        record["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
