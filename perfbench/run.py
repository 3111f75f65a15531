#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload census_engine --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the netcons library from src/ plus the
netcons_perf measuring program) under .bench_build/perfbench, then runs one
workload. The last line of standard output is the result JSON object; the
exit code is 0 only when the build succeeded and every output check held.
Scratch files (records, caches, span logs) go under .bench_build/work.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census_engine", "fault_recovery", "records_pipeline", "serve_cache")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configure (once) and build netcons_perf; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, cwd=root)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "netcons_perf", "-j", "4"],
            check=True, stdout=sys.stderr, cwd=root)
    return os.path.join(build_dir, "netcons_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "campaign", "campaign.hpp")):
        print("perfbench: no netcons sources under %s/src; run from a full checkout" % root,
              file=sys.stderr)
        return 2
    bench_build = os.path.join(root, ".bench_build")
    try:
        binary = build(root, os.path.join(bench_build, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    # --seconds is part of the harness's command line only: every workload
    # runs a fixed amount of work, never a time box.
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", args.trace,
               "--work-dir", os.path.join(bench_build, "work")]
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and waits for the child before raising.
        print("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
