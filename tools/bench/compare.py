#!/usr/bin/env python3
"""Compare benchmark JSON against a committed baseline and flag regressions.

Understands the three JSON shapes the repo produces:

  * google-benchmark output (bench_micro_perf writes BENCH_micro_perf.json):
    {"benchmarks": [{"name": ..., "real_time": ..., "time_unit": ...}, ...]}
    — lower is better; compared on real_time, normalized to nanoseconds.
  * bench_parallel_scaling output (BENCH_parallel.json):
    {"runs": [{"threads": N, "updates_per_sec": X, ...}, ...]}
    — higher is better; compared on updates_per_sec, keyed by thread count.
    The other per-run fields (seconds, updates, sim_events) are context and
    are not compared.
  * bench_full_paper output (BENCH_full_paper.json):
    {"metrics": [{"name": ..., "value": X, "higher_is_better": B}, ...]}
    — each metric declares its own direction.

Usage:
  tools/bench/compare.py BASELINE CURRENT [--threshold=0.05] [--warn-only]

Exit status is 1 when any metric regresses by more than the threshold,
unless --warn-only is given (CI uses --warn-only: timings from shared
runners jitter far beyond 5%, so the comparison is advisory there).
"""

from __future__ import annotations

import argparse
import json
import sys

# Multipliers to nanoseconds for google-benchmark time units.
_TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_metrics(path: str) -> dict[str, tuple[float, bool]]:
    """Returns {metric name: (value, higher_is_better)}."""
    with open(path) as f:
        doc = json.load(f)
    metrics: dict[str, tuple[float, bool]] = {}
    if "benchmarks" in doc:
        for bench in doc["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            unit = _TIME_UNITS.get(bench.get("time_unit", "ns"), 1.0)
            metrics[bench["name"]] = (float(bench["real_time"]) * unit, False)
    elif "runs" in doc:
        for run in doc["runs"]:
            name = f"updates_per_sec/threads:{run['threads']}"
            metrics[name] = (float(run["updates_per_sec"]), True)
    elif "metrics" in doc:
        for metric in doc["metrics"]:
            metrics[metric["name"]] = (float(metric["value"]),
                                       bool(metric["higher_is_better"]))
    else:
        raise ValueError(f"{path}: unrecognized benchmark JSON shape")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="regression ratio that fails (default 0.05)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)

    regressions = 0
    for name, (base_value, higher_is_better) in sorted(baseline.items()):
        if name not in current:
            print(f"MISSING  {name}: in baseline but not in current run")
            regressions += 1
            continue
        value, _ = current[name]
        if base_value <= 0:
            continue
        # Positive delta = worse, for either metric direction.
        if higher_is_better:
            delta = (base_value - value) / base_value
        else:
            delta = (value - base_value) / base_value
        status = "REGRESS" if delta > args.threshold else "ok"
        if status == "REGRESS":
            regressions += 1
        print(f"{status:8s} {name}: baseline={base_value:.1f} "
              f"current={value:.1f} ({delta:+.1%})")
    for name in sorted(set(current) - set(baseline)):
        print(f"NEW      {name}: {current[name][0]:.1f} (no baseline)")

    if regressions:
        print(f"{regressions} metric(s) regressed more than "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 0 if args.warn_only else 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
