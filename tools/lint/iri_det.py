#!/usr/bin/env python3
"""Semantic determinism analyzer for the iri sim/digest contract.

Builds a whole-program model from compile_commands.json (function
definitions, call graph, container iteration, include DAG) and verifies the
determinism contract over every file in that closure (DESIGN.md §11):

  wall-clock-taint     no call path from WallClockNanos()/std::chrono system
                       clocks/rand() into a digest, metrics-snapshot, MRT,
                       trace or series-JSONL sink (Stability::kWallClock
                       instruments in obs/profile.* are the one allowlisted
                       source).
  unordered-in-output  no std::unordered_{map,set} iteration in any function
                       reachable from SnapshotText/SnapshotJson, digest
                       writers, MRT/trace/series emitters or the fixed-order
                       merge code.
  rng-discipline       every RNG draw goes through the seeded SplitMix64 /
                       Xoshiro streams (netbase/rng.h + ExchangeSubSeed);
                       no ad-hoc std::mt19937 / rand() / random() / <random>.
  thread-confinement   std::thread/std::async/mutexes/atomics only in
                       src/sim/parallel.cc (atomics also core/invariants.h).
  wall-clock-confinement
                       raw clock reads (std::chrono clocks, time(),
                       gettimeofday, clock_gettime, clock(), localtime(),
                       gmtime()) only in netbase/time.*; the WallClockNanos()
                       accessor is left to wall-clock-taint.
  include-layering     the netbase -> obs -> bgp -> {sim,mrt,topology,
                       analysis,igp} -> core -> workload layer order holds
                       over the full include DAG, and the DAG is acyclic.
  pragma-once          every first-party header has `#pragma once`.

Frontends (--frontend auto|clang|fallback): libclang AST when the clang
python bindings are installed (CI does this), otherwise a dependency-free
parser driven by the same compilation database. Findings are emitted as
machine-readable JSON and diffed against tools/lint/det_baseline.json so the
gate blocks *new* findings from day one.

Suppress a finding (sparingly, with a reason in a nearby comment) with
`iri-det: allow(<check>)` in a comment on the offending line.

Usage:
  iri_det.py [--compdb build/compile_commands.json] [--diff-baseline]
  iri_det.py --write-baseline          re-bless accepted findings
  iri_det.py --self-test               fixture bad/good pairs, every frontend
  iri_det.py --must-flag FILE          exit 0 iff FILE has >=1 finding
                                       (used by the det_gap_flagged ctest)

Exit status: 0 clean (or no new findings with --diff-baseline), 1 findings,
2 internal/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from detlib import baseline as baselib  # noqa: E402
from detlib import compdb as compdblib  # noqa: E402
from detlib import frontend_clang, frontend_fallback  # noqa: E402
from detlib.passes import CHECKS, DetConfig, Finding, run_all  # noqa: E402

DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent / "det_baseline.json"
FIXTURES = pathlib.Path(__file__).resolve().parent / "detfixtures"

EXPECT_RE = re.compile(r"det-expect:\s*([a-z-]+)")


# --------------------------------------------------------------------------
# Frontend selection

def pick_frontend(choice: str):
    """Returns (name, build_model callable)."""
    if choice == "clang":
        if not frontend_clang.available():
            why = frontend_clang.import_error() or "no usable libclang"
            raise SystemExit(
                f"iri_det: --frontend clang requested but libclang is "
                f"unavailable ({why})")
        return "clang", frontend_clang.build_model
    if choice == "fallback":
        return "fallback", frontend_fallback.build_model
    # auto
    if frontend_clang.available():
        return "clang", frontend_clang.build_model
    return "fallback", frontend_fallback.build_model


def build_model_resilient(name: str, builder, compdb_path: pathlib.Path,
                          root: pathlib.Path):
    """Run the chosen frontend; if the clang frontend throws (broken
    bindings, unparseable database), degrade to the fallback with a warning
    rather than failing the gate on tooling breakage."""
    try:
        return name, builder(compdb_path, root)
    except Exception as err:  # noqa: BLE001 - deliberate tooling firewall
        if name == "clang":
            print(f"iri_det: clang frontend failed ({err}); "
                  "falling back to the stdlib frontend", file=sys.stderr)
            return "fallback", frontend_fallback.build_model(compdb_path, root)
        raise


# --------------------------------------------------------------------------
# Self-test: analyze the committed fixture tree (bad/good snippet pairs,
# compiled in-tree by tools/lint/detfixtures/CMakeLists.txt) with every
# available frontend and require the det-expect markers to match exactly.

def fixture_sources(fixtures: pathlib.Path) -> list[pathlib.Path]:
    return sorted((fixtures / "src").rglob("*.cc"))


def fixture_files(fixtures: pathlib.Path) -> list[pathlib.Path]:
    return sorted(p for p in (fixtures / "src").rglob("*")
                  if p.suffix in (".cc", ".h"))


def fixture_expectations(fixtures: pathlib.Path) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for path in fixture_files(fixtures):
        rel = path.relative_to(fixtures).as_posix()
        expected = set(EXPECT_RE.findall(
            path.read_text(encoding="utf-8", errors="replace")))
        bad = expected - set(CHECKS)
        if bad:
            raise SystemExit(f"iri_det: {rel} expects unknown checks {bad}")
        out[rel] = expected
    return out


def synth_compdb(fixtures: pathlib.Path, out_dir: pathlib.Path) -> pathlib.Path:
    entries = []
    for src in fixture_sources(fixtures):
        entries.append({
            "directory": str(fixtures),
            "file": str(src),
            "command": (f"g++ -std=c++20 -I{fixtures / 'src'} "
                        f"-c {src} -o /dev/null"),
        })
    path = out_dir / "compile_commands.json"
    path.write_text(json.dumps(entries, indent=1), encoding="utf-8")
    return path


def self_test() -> int:
    if not FIXTURES.is_dir():
        print(f"iri_det: fixture tree missing at {FIXTURES}", file=sys.stderr)
        return 2
    expectations = fixture_expectations(FIXTURES)
    frontends: list[tuple[str, object]] = [
        ("fallback", frontend_fallback.build_model)]
    if frontend_clang.available():
        frontends.append(("clang", frontend_clang.build_model))

    failures: list[str] = []
    per_frontend_results: dict[str, dict[str, set[str]]] = {}
    with tempfile.TemporaryDirectory(prefix="iri_det_selftest_") as tmp:
        compdb_path = synth_compdb(FIXTURES, pathlib.Path(tmp))
        for name, builder in frontends:
            model = builder(compdb_path, FIXTURES)
            findings = run_all(model, DetConfig())
            got: dict[str, set[str]] = {rel: set() for rel in expectations}
            for f in findings:
                got.setdefault(f.file, set()).add(f.check)
            per_frontend_results[name] = got
            for rel, expected in sorted(expectations.items()):
                actual = got.get(rel, set())
                if actual != expected:
                    missing = expected - actual
                    surplus = actual - expected
                    parts = []
                    if missing:
                        parts.append(f"missing {sorted(missing)}")
                    if surplus:
                        parts.append(f"unexpected {sorted(surplus)}")
                    failures.append(f"[{name}] {rel}: {', '.join(parts)}")

    if len(per_frontend_results) > 1:
        fb = per_frontend_results["fallback"]
        cl = per_frontend_results["clang"]
        for rel in expectations:
            if fb.get(rel, set()) != cl.get(rel, set()):
                failures.append(
                    f"[frontend-drift] {rel}: fallback={sorted(fb.get(rel, set()))} "
                    f"clang={sorted(cl.get(rel, set()))}")

    if failures:
        print("iri_det self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    names = ", ".join(name for name, _ in frontends)
    print(f"iri_det self-test passed: {len(expectations)} fixture files, "
          f"frontends: {names}.")
    return 0


# --------------------------------------------------------------------------
# Output

def emit_json(findings: list[Finding], frontend: str,
              out_path: pathlib.Path) -> None:
    data = {
        "tool": "iri_det",
        "frontend": frontend,
        "checks": list(CHECKS),
        "findings": [
            {"key": f.key(), "check": f.check, "file": f.file, "line": f.line,
             "function": f.function, "detail": f.detail, "message": f.message}
            for f in findings
        ],
    }
    out_path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def emit_github(findings: list[Finding]) -> None:
    for f in findings:
        msg = f.message.replace("\n", " ")
        print(f"::error file={f.file},line={f.line},title=iri_det "
              f"{f.check}::{msg}")


# --------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--compdb", type=pathlib.Path, default=None,
                        help="compile_commands.json (default: ROOT/build/)")
    parser.add_argument("--frontend", choices=("auto", "clang", "fallback"),
                        default="auto")
    parser.add_argument("--check", action="append", choices=CHECKS,
                        help=f"run only these passes (default: all "
                             f"{len(CHECKS)})")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write machine-readable findings to this path")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--diff-baseline", action="store_true",
                        help="fail only on findings not in the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="re-bless the baseline from current findings")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub annotations (auto under Actions)")
    parser.add_argument("--must-flag", type=pathlib.Path, default=None,
                        help="exit 0 iff this file has at least one finding "
                             "(fixture-gap regression check)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    compdb_path = compdblib.find_compdb(root, args.compdb)
    if compdb_path is None:
        print("iri_det: no compile_commands.json found (configure with "
              "`cmake -B build -S .` first, or pass --compdb)",
              file=sys.stderr)
        return 2

    name, builder = pick_frontend(args.frontend)
    frontend, model = build_model_resilient(name, builder, compdb_path, root)

    keep = None
    if args.must_flag is not None:
        keep = pathlib.Path(args.must_flag)
        keep = keep.as_posix() if not keep.is_absolute() else \
            keep.resolve().relative_to(root).as_posix()

    findings = run_all(model, DetConfig(), checks=args.check, keep=keep)

    if args.must_flag is not None:
        hits = [f for f in findings if f.file == keep]
        for f in hits:
            print(f)
        if hits:
            print(f"iri_det: {keep} flagged as required "
                  f"({len(hits)} finding(s), frontend={frontend}).")
            return 0
        print(f"iri_det: expected at least one finding in {keep}, got none "
              f"(frontend={frontend})", file=sys.stderr)
        return 1

    if args.json:
        emit_json(findings, frontend, args.json)

    if args.write_baseline:
        baselib.dump(findings, args.baseline, frontend)
        print(f"iri_det: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    if args.diff_baseline:
        base = baselib.load(args.baseline)
        new, fixed = baselib.diff(findings, base)
        for key in fixed:
            print(f"iri_det: baseline entry fixed (prune it): {key}")
        for f in new:
            print(f)
        if args.github or os.environ.get("GITHUB_ACTIONS"):
            emit_github(new)
        stats = (f"{len(findings)} total, {len(new)} new, "
                 f"{len(base)} baselined, {len(fixed)} fixed, "
                 f"frontend={frontend}, "
                 f"{len(model.files)} files, {len(model.functions)} functions")
        if new:
            print(f"iri_det: FAIL ({stats}).")
            return 1
        print(f"iri_det: clean vs baseline ({stats}).")
        return 0

    for f in findings:
        print(f)
    if args.github or os.environ.get("GITHUB_ACTIONS"):
        emit_github(findings)
    if findings:
        print(f"iri_det: {len(findings)} finding(s) "
              f"(frontend={frontend}).")
        return 1
    print(f"iri_det: clean ({len(model.files)} files, "
          f"{len(model.functions)} functions, frontend={frontend}).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
