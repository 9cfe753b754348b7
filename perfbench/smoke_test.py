#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --tiny for every workload in BENCHMARK.json, untraced
and traced, and asserts that each run prints exactly the metrics
BENCHMARK.json names for that mode, each with its unit and a finite value,
that every correctness check passed (fail_ratio == 0), and that the
end-to-end metrics are all above zero. Exits 0 when all pass.
"""
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO,
                          timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        errors.append(f"fail_ratio {result['failed']}/{result['attempted']}")
    if result["correct"] is not True:
        errors.append("correct is not true")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} "
                          f"!= {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value}")
        elif not trace and value <= 0:
            errors.append(f"{m['name']}: end-to-end value {value} <= 0")
    return errors


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    print(f"{failures} failing run(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
