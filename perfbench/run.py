#!/usr/bin/env python3
"""Entry point of the Spade benchmark.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and builds
`perfbench/` (the Spade library from `src/` plus the `spade_perf` runner) in
Release under `.bench_build/perfbench`; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is always the runner's
JSON result. The exit code is the runner's: nonzero on a failed build, a bad
argument, a refused metric or any failed operation.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-zipf", "cold-churn")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "perfbench-run")


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %s" % text)
    return value


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Fixed worker / connection count. 0 ("all cores") is refused: the count
    # must not change with the machine the benchmark lands on.
    parser.add_argument("--threads", type=positive_int, default=None)
    return parser.parse_args()


def build(jobs):
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(jobs)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    args = parse_args()
    nproc = os.cpu_count() or 1
    if args.threads is not None and args.threads > nproc:
        sys.exit("perfbench: --threads %d exceeds the %d hardware threads"
                 % (args.threads, nproc))
    if not build(min(4, nproc)):
        sys.exit("perfbench: build failed")
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "spade_perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", RUN_DIR]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
