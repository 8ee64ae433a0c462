#!/usr/bin/env python3
"""Self-tests for the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does) and checks, at tiny sizes:
  * every workload runs to completion, correct, with failed_frac printed;
  * the result line names exactly BENCHMARK.json's end-to-end metrics
    (untraced) and per-layer metrics (traced), each with its unit, and the
    report prints every workload-specific metric with its unit;
  * a held-out seed (not 42) runs clean;
  * the ShardedEngine digest equals the SingleQueueEngine oracle's;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result line.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

import run

HELD_OUT_SEED = 7
# Workload-specific (simulated-time) metrics each report prints, with units.
REPORTED = {
    "big_unit": {"ops_per_sim_s": "ops/sim-s", "failed_frac": "ratio"},
    "client_io": {"ops_per_sim_s": "ops/sim-s", "read_p50_ms": "ms",
                  "read_p99_ms": "ms", "write_p99_ms": "ms",
                  "failed_frac": "ratio"},
    "stripe_failover": {"stripe_alloc_p50_ms": "ms", "failover_gap_s": "s",
                        "rebuild_s": "s", "failed_frac": "ratio"},
    "fleet": {"ops_per_sim_s": "ops/sim-s", "failed_frac": "ratio"},
}


def check(condition, message):
    if not condition:
        print("FAIL: " + message, file=sys.stderr)
        sys.exit(1)
    print("ok: " + message)


def tiny_run(workload, seed, trace):
    status, lines = run.run(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.5", "--trace", str(trace),
                             "--tiny"])
    result = run.parse_result(lines[-1]) if lines else None
    return status, lines, result


def reported_units(lines):
    """Maps each printed metric row's name to its unit."""
    units = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  "):
            try:
                float(fields[1])
            except ValueError:
                continue
            units[fields[0]] = fields[2]
    return units


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(sorted(w["name"] for w in bench["workloads"]) ==
          sorted(run.WORKLOADS), "BENCHMARK.json lists run.py's workloads")

    run.build()
    for workload in run.WORKLOADS:
        for seed in (42, HELD_OUT_SEED):
            status, lines, result = tiny_run(workload, seed, trace=0)
            check(status == 0 and result is not None and result["correct"],
                  "%s seed %d runs to completion, correct" % (workload, seed))
            check(result["failed"] == 0 and result["attempted"] > 0,
                  "%s seed %d: %d attempted, none failed" %
                  (workload, seed, result["attempted"]))
            check({k: v["unit"] for k, v in result["metrics"].items()} ==
                  end_to_end, "%s: result line has every end-to-end metric "
                  "with its unit" % workload)
            units = reported_units(lines)
            for name, unit in REPORTED[workload].items():
                check(units.get(name) == unit,
                      "%s prints %s [%s]" % (workload, name, unit))
        status, lines, result = tiny_run(workload, 42, trace=1)
        check(status == 0 and result is not None and result["correct"],
              "%s traced run completes" % workload)
        check({k: v["unit"] for k, v in result["metrics"].items()} ==
              per_layer, "%s: traced result has every per-layer metric "
              "with its unit" % workload)

    for workload in ("big_unit", "fleet"):
        status, lines = run.run(["--workload", workload, "--oracle"])
        check(status == 0 and lines and lines[-1].endswith("identical"),
              "%s: ShardedEngine digest == SingleQueueEngine oracle" % workload)

    # run.py must refuse, quickly and without a result line, where only the
    # benchmark's own files exist.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "client_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "run.py fails without the simulator sources, printing no result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
