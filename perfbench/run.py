#!/usr/bin/env python3
"""Builds and runs the UStore end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload client_io --seed 42 --seconds 15 \
        --trace 0

Builds perfbench/ (and the simulator sources it compiles from ../src) in
Release into .bench_build/ at the repository root, runs one workload, and
passes the benchmark's report through. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and the span log is written to
.bench_build/spans-<workload>-<seed>.json.

Exits non-zero, without a result line, when the sources are missing or the
build fails, and with the benchmark's own status when a correctness check
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("big_unit", "client_io", "stripe_failover", "fleet")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def binary_path():
    return os.path.join(build_dir(), "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT, check=False)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def parse_result(line):
    """Returns the result object if `line` is a well-formed result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run(extra_args):
    """Runs the built benchmark; returns (exit status, stdout lines)."""
    try:
        proc = subprocess.run([binary_path()] + extra_args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.json" % (args.workload, args.seed))]
    status, lines = run(extra)
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        fail("benchmark exited %d without a result line" % status)
    print(lines[-1])
    sys.stdout.flush()
    if status != 0 or not result["correct"]:
        sys.exit(status if status != 0 else 1)


if __name__ == "__main__":
    main()
