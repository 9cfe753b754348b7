#!/usr/bin/env python3
"""The repository benchmark: one command, two batch workloads.

    python3 perfbench/run.py --workload campaign|replay \\
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the repository root. It builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark program (iri_perfbench), checks its outputs and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, from
untraced runs only. --trace 1 reports the per-layer metrics: it reruns the
workload traced (wall-clock profile sites plus benchmark spans) and prints
the per-layer table above the JSON line. Both modes stamp the result with
the host and build (nproc, CPU model, compiler, build type, IRI_TRACE,
IRI_PROVENANCE; a Debug or sanitizer build is flagged as not comparable)
and write it, with iri_perfbench's raw records and the spans, under
<build>/results/.

attempted / failed count iri_perfbench's correctness checks; their ratio
is the benchmark's fail_ratio. --tiny shrinks every workload for the smoke
test (perfbench/smoke_test.py); its numbers are not comparable.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign", "replay")
RUN_TIMEOUT_S = 170

# Profile sites the program already keeps (obs/profile.h); all inclusive.
# monitor.drain may nest inside monitor.ingest (a drain at the batch cap).
SITES = ("sched.run_until", "rib.announce", "rib.withdraw", "rib.lookup",
         "codec.encode", "codec.decode", "monitor.ingest", "monitor.drain")
SIM_CHILD_SITES = SITES[1:]


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO, target, "perfbench")


def build():
    """Configures and builds iri_perfbench (both incremental); returns its
    path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "iri_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=REPO).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build step failed: {cmd}\n")
                return None
    return os.path.join(out, "iri_perfbench")


def run_bench(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=REPO)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.stderr.write(f"perfbench: iri_perfbench exited {proc.returncode}\n")
        return None
    return proc.stdout


def parse(text):
    rec = {"stamp": {}, "setup": [], "slice": [], "rep": [], "check": {},
           "layer": {}, "snap": {}, "span": [], "peak_rss_mb": None}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        kind = f[0]
        if kind == "stamp":
            rec["stamp"][f[1]] = " ".join(f[2:])
        elif kind == "setup":
            rec["setup"].append((int(f[1]), float(f[2])))
        elif kind == "slice":
            rec["slice"].append((int(f[1]), int(f[2]), int(f[3]),
                                 float(f[4]), float(f[5])))
        elif kind == "rep":
            rec["rep"].append((int(f[1]), int(f[2]), float(f[3]),
                               float(f[4]), int(f[5]), float(f[6])))
        elif kind == "check":
            rec["check"][f[1]] = (int(f[2]), int(f[3]))
        elif kind == "layer":
            rec["layer"][f[1]] = float(f[2])
        elif kind == "snap":
            rec["snap"][f[2]] = float(f[3])
        elif kind == "span":
            rec["span"].append({"id": int(f[1]), "parent": int(f[2]),
                                "name": f[3], "start": int(f[4]),
                                "end": int(f[5]), "items": int(f[6])})
        elif kind == "peak_rss_mb":
            rec["peak_rss_mb"] = float(f[1])
    return rec


# --- end-to-end metrics ----------------------------------------------------

def low(samples):
    """The figure for repeated samples of the same work: their minimum.
    Interference on a shared host only ever adds time, and comes in phases
    of tens of seconds that cover a sample whole, so the fastest sample is
    the one nearest the work's own cost; a median of a few samples still
    moves with the share of a run that fell in a slow phase."""
    return min(samples)


def per_input(rec):
    """{input: ({(partition, hour): wall_s}, tail_s, setup_s)}: for each
    rotating input, low() over its repetitions of each simulated hour's
    wall time, of the timed work after the last hour, and of its set-up."""
    input_of = {rep: k for rep, k, *_ in rec["rep"]}
    hours, tails, setups = {}, {}, {}
    for rep, part, hour, wall, _rss in rec["slice"]:
        hours.setdefault(input_of[rep], {}).setdefault(
            (part, hour), []).append(wall)
    for _rep, k, _wall, tail, _events, _days in rec["rep"]:
        tails.setdefault(k, []).append(tail)
    for k, seconds in rec["setup"]:
        setups.setdefault(k, []).append(seconds)
    return {k: ({key: low(ws) for key, ws in hours[k].items()},
                low(tails[k]), low(setups[k])) for k in hours}


def end_to_end(rec):
    inputs = per_input(rec)
    events = {k: ev for _rep, k, _wall, _tail, ev, _days in rec["rep"]}
    simdays = rec["rep"][0][5]
    setup, boot, steady, eps, pooled = [], [], [], [], []
    for k, (hours, tail, setup_s) in inputs.items():
        later = [w for (_p, h), w in hours.items() if h >= 1]
        setup.append(setup_s)
        boot.append(sum(w for (_p, h), w in hours.items() if h == 0))
        steady.append(sum(later) / (simdays - 1.0 / 24.0))
        eps.append(events[k] / (sum(hours.values()) + tail))
        pooled += later
    reps = {}
    for rep, *row in rec["slice"]:
        reps.setdefault(rep, []).append((rep, *row))
    metrics = {
        "setup_s": (statistics.fmean(setup), "s"),
        "s_per_simday": (statistics.fmean(steady), "s"),
        "simhour_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "events_per_s": (statistics.fmean(eps), "1/s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    extra = {
        "bootstrap_s": (statistics.fmean(boot), "s"),
        "simhour_p90_ms": (statistics.quantiles(pooled, n=10)[8] * 1e3, "ms"),
        "rss_mb_per_simday": (
            statistics.median(rss_slope(s) for s in reps.values()),
            "MB/simday"),
    }
    counts = {"reps": len(rec["rep"]), "inputs": len(inputs),
              "simhour_slices": len(pooled), "setups": len(rec["setup"])}
    return metrics, extra, counts


# --- per-layer metrics -----------------------------------------------------

def span_tree(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return children


def span_rows(spans, root_name):
    """Inclusive and self ns per span name inside the first `root_name`
    span. Self time is the span minus the part its child spans cover; the
    benchmark's spans nest strictly, so that is the sum of the children."""
    children = span_tree(spans)
    roots = [s for s in spans if s["name"] == root_name]
    rows = {}
    if not roots:
        return rows, 0

    def walk(s):
        dur = s["end"] - s["start"]
        covered = sum(c["end"] - c["start"] for c in children.get(s["id"], []))
        row = rows.setdefault(s["name"], {"calls": 0, "items": 0,
                                          "incl": 0, "self": 0})
        row["calls"] += 1
        row["items"] += s["items"]
        row["incl"] += dur
        row["self"] += dur - covered
        for c in children.get(s["id"], []):
            walk(c)

    walk(roots[0])
    return rows, roots[0]["end"] - roots[0]["start"]


def setup_median(spans, name):
    """Median over set-up repetitions of the ns spent in `name`."""
    children = span_tree(spans)
    totals = []
    for s in spans:
        if s["name"] != "setup":
            continue
        totals.append(sum(c["end"] - c["start"]
                          for c in children.get(s["id"], [])
                          if c["name"] == name))
    return statistics.median(totals) if totals else 0.0


def rss_slope(slices):
    """MB per simulated day: least-squares slope of sampled RSS over
    simulated time (hour 0 excluded), summed over exchange partitions."""
    total = 0.0
    for part in sorted({s[1] for s in slices}):
        pts = [((h + 1) / 24.0, rss) for _r, p, h, _w, rss in slices
               if p == part and h >= 1]
        if len(pts) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        total += sum((x - mx) * (y - my) for x, y in pts) / sxx
    return round(total, 6)


def per_layer(rec):
    snap, layer = rec["snap"], rec["layer"]

    def site(name, field):
        return snap.get(f"profile.{name}.{field}", 0.0)

    rows, wall_ns = span_rows(rec["span"], "timed")
    plain = [s for s in rec["slice"] if s[0] == 0]  # the untraced repetition
    run_until = site("sched.run_until", "wall_ns")
    children = sum(site(s, "wall_ns") for s in SIM_CHILD_SITES)
    other = max(0.0, run_until - children)
    events = snap.get("monitor.events", 0.0)
    messages = snap.get("monitor.messages", 0.0)
    capture = layer.get("mrt.capture_bytes", 0.0)
    untraced = layer["wall_untraced_s"]
    quiet = layer.get("wall_telemetry_off_s", 0.0)  # 0: no telemetry

    def span_ns(name):
        return rows.get(name, {}).get("incl", 0.0)

    m = {
        "bgp.rib.announce_ns": (site("rib.announce", "wall_ns"), "ns"),
        "bgp.rib.withdraw_ns": (site("rib.withdraw", "wall_ns"), "ns"),
        "bgp.rib.lookup_ns": (site("rib.lookup", "wall_ns"), "ns"),
        "bgp.rib.calls": (sum(site(s, "calls") for s in
                              ("rib.announce", "rib.withdraw", "rib.lookup")),
                          "count"),
        "bgp.codec.encode_ns": (site("codec.encode", "wall_ns"), "ns"),
        "bgp.codec.decode_ns": (site("codec.decode", "wall_ns"), "ns"),
        "bgp.codec.bytes": (site("codec.encode", "items") +
                            site("codec.decode", "items"), "B"),
        "bgp.codec.update_share": (
            ratio(snap.get("router.updates_tx", 0.0),
                  snap.get("router.messages_tx", 0.0)), "ratio"),
        "bgp.codec.replay_decode_ns": (
            layer.get("bgp.codec.replay_decode_ns", 0.0), "ns"),
        "core.monitor.ingest_ns": (site("monitor.ingest", "wall_ns"), "ns"),
        "core.monitor.drain_ns": (site("monitor.drain", "wall_ns"), "ns"),
        "core.monitor.events": (events, "count"),
        "core.monitor.events_per_msg": (ratio(events, messages), "ratio"),
        "core.replay_classify_ns": (
            layer.get("core.replay_classify_ns", 0.0), "ns"),
        "sim.sched.run_until_ns": (run_until, "ns"),
        "sim.sched.tasks": (snap.get("sched.tasks", 0.0), "count"),
        "sim.sched.peak_pending": (snap.get("sched.peak_pending", 0.0),
                                   "count"),
        "sim.link.messages": (snap.get("link.messages", 0.0), "count"),
        "sim.link.bytes": (snap.get("link.bytes", 0.0), "B"),
        "sim.other_ns": (other, "ns"),
        "sim.other_share": (ratio(other, wall_ns), "ratio"),
        # 0 where the workload has a single partition.
        "sim.parallel_speedup": (layer.get("sim.parallel_speedup", 0.0),
                                 "ratio"),
        "mrt.read_ns": (layer.get("mrt.read_ns", 0.0), "ns"),
        "mrt.bytes_per_event": (ratio(capture, events), "B"),
        "mrt.capture_bytes": (capture, "B"),
        "obs.telemetry_share": (1.0 - quiet / untraced if quiet else 0.0,
                                "ratio"),
        "obs.health.ticks": (snap.get("health.ticks", 0.0), "count"),
        "obs.series_records": (layer.get("obs.series_records", 0.0),
                               "count"),
        "obs.profile_overhead": (layer["wall_traced_s"] / untraced - 1.0,
                                 "ratio"),
        "analysis.spectrum_ns": (span_ns("analysis.spectrum"), "ns"),
        "analysis.burg_ns": (span_ns("analysis.burg"), "ns"),
        "analysis.ssa_ns": (span_ns("analysis.ssa"), "ns"),
        "topology.generate_ns": (setup_median(rec["span"],
                                              "topology.generate"), "ns"),
        "workload.scenario_ctor_ns": (
            setup_median(rec["span"], "workload.scenario_ctor"), "ns"),
        "workload.digest_ns": (span_ns("workload.digest"), "ns"),
        "rss_mb_per_simday": (rss_slope(plain), "MB/simday"),
    }
    return m, layer_table(rec, rows, wall_ns, other)


def ratio(num, den):
    return num / den if den else 0.0


def layer_table(rec, rows, wall_ns, other):
    """Human-readable per-layer table of the traced run."""
    snap = rec["snap"]
    lines = [f"per-layer table (traced run; wall = {wall_ns / 1e6:.1f} ms "
             "of the timed phase)",
             f"{'layer':34} {'source':8} {'kind':5} {'calls':>10} "
             f"{'items':>12} {'ns':>14} {'%wall':>7}"]

    def add(name, source, kind, calls, items, ns):
        share = 100.0 * ns / wall_ns if wall_ns else 0.0
        lines.append(f"{name:34} {source:8} {kind:5} {int(calls):>10} "
                     f"{int(items):>12} {int(ns):>14} {share:>7.2f}")

    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["incl"]):
        add(name, "span", "incl", row["calls"], row["items"], row["incl"])
        if row["self"] != row["incl"]:
            add(name, "span", "self", row["calls"], row["items"], row["self"])
    for name in SITES:
        calls = snap.get(f"profile.{name}.calls", 0.0)
        if calls:
            add(name, "profile", "incl", calls,
                snap.get(f"profile.{name}.items", 0.0),
                snap.get(f"profile.{name}.wall_ns", 0.0))
    if snap.get("profile.sched.run_until.calls"):
        add("sim.other (run_until - sites)", "derived", "rest", 0, 0, other)
    if "parallel_workers" in rec["layer"]:
        lines.append(f"sim.parallel_speedup at "
                     f"{int(rec['layer']['parallel_workers'])} workers: "
                     f"{rec['layer']['sim.parallel_speedup']:.3f}x")
    return "\n".join(lines)


# --- main ------------------------------------------------------------------

def host_stamp(program_stamp):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu}
    stamp.update(program_stamp)
    stamp["comparable"] = (
        stamp.get("build_type") in ("Release", "RelWithDebInfo") and
        stamp.get("sanitize") == "none")
    return stamp


def finite(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v, _unit in metrics.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke test only)")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    exe = build()
    if exe is None:
        return 1
    text = run_bench(exe, args)
    if text is None:
        return 1
    rec = parse(text)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".records.txt", "w") as f:
        f.write(text)
    stamp = host_stamp(rec["stamp"])
    attempted = sum(a for a, _f in rec["check"].values())
    failed = sum(f for _a, f in rec["check"].values())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    extra, counts = {}, {}
    if args.trace:
        metrics, table = per_layer(rec)
        print(table)
    else:
        metrics, extra, counts = end_to_end(rec)
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if not stamp["comparable"]:
        print("WARNING: debug or sanitizer build: numbers are not comparable")
    for name, (attempts, fails) in sorted(rec["check"].items()):
        print(f"check {name}: {attempts - fails}/{attempts} passed")
    print(f"fail_ratio {ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} checks failed)")
    if counts:
        print("samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name} {value:.6g} {unit}")

    correct = failed == 0 and attempted > 0 and finite(metrics)
    if not args.trace:
        correct = correct and all(v > 0 for v, _u in metrics.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "tiny": args.tiny,
                   "stamp": stamp, "result": result}, f, indent=1)
    if rec["span"]:
        with open(stem + ".spans.jsonl", "w") as f:
            for s in rec["span"]:
                f.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
