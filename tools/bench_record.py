"""Write a benchmark record, ``BENCH_<n>.json``, from repeated benchmark runs.

    python3 tools/bench_record.py --out BENCH_31.json
    python3 tools/bench_record.py --out rec.json --workload local_equivalence --repeats 1 --seconds 1

Each workload runs ``--repeats`` times (k, at least 3 for a record that a
speed claim quotes), one fresh ``perfbench/run.py --trace 0`` process at a
time.  The last line of each run is its JSON result; the record keeps, per
workload and end-to-end metric, every run's value, the median, the range
(min, max) and the spread (max - min) / median.  It also records the
commit and whether ``src/`` or ``perfbench/`` differ from it (both null
outside a git checkout, such as a ``git archive`` copy), the Python
version, the CPU count, k, the seed and the budget per run.  The seed is
fixed at ``SEED``, so two records are always comparable.

Under ``layers`` it times layers of ``hfi.complexes`` on fixed inputs, k
times each, a time being the fastest of ``LAYER_CALLS`` calls in this
process: ``_local_map_columns`` and ``gf2.solvable`` inside
``find_local_map`` on the largest local-map system that the unknown budget
admits among the ``local_equivalence`` pair complexes (165 -> 63
generators, 5,724 unknowns, infeasible); ``validate`` on the
165-generator complex; and, on the same complex, the two tower readings:
``validate``'s ``_single_tower_check`` and the local-map search's tower
representative, ``IotaComplex._tower`` (``side_tower_ms``), timed
uncached through the cached property's ``func``.  A complex keeps its
tower after the first read, so ``find_local_map_ms``, the fastest of its
calls, holds no tower elimination.  The inputs are built by
``perfbench/workloads.py``, imported from the checkout.

Only the standard library is used, and nothing under ``perfbench/`` is
edited.  A run that fails an op or exits non-zero makes the script exit 1
after writing the record, so a record with ``"ok": false`` is never quoted
by accident.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
WORKLOADS = ("sigma_sweep", "oracle_cross_check", "local_equivalence")
SEED = 11
LAYER_CALLS = 9


def git(*args: str) -> str | None:
    """Output of a git command in the checkout, or None where it fails, as
    outside a git checkout."""
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload: str, seconds: float) -> dict:
    """One benchmark run: its result line, and the exit code."""
    proc = subprocess.run([sys.executable, str(RUNNER), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds),
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def summarize(runs: list[dict]) -> dict:
    """Per metric: unit, every run's value, median, range and spread."""
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": median,
            "range": [min(values), max(values)],
            "spread": (max(values) - min(values)) / median if median else 0.0,
        }
    return metrics


def timed(values: list[float], fn):
    """fn, appending the milliseconds of each call to values."""
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            values.append((time.perf_counter() - t0) * 1e3)
    return wrapper


def layer_timings(repeats: int) -> dict:
    """The fixed-input layer timings (module docstring), summarized like
    the end-to-end metrics."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from hfi import complexes

    def unknowns(a, b) -> int:
        """The unknown count of find_local_map(a, b), read off the
        SearchSizeError it raises, before any elimination, at a budget of 0."""
        limit, complexes.MAX_LOCAL_MAP_UNKNOWNS = complexes.MAX_LOCAL_MAP_UNKNOWNS, 0
        try:
            complexes.find_local_map(a, b)
        except complexes.SearchSizeError as e:
            return sum(map(int, re.findall(r"(\d+) (?:F-|H-|slack )vars", str(e))))
        finally:
            complexes.MAX_LOCAL_MAP_UNKNOWNS = limit
        return 0

    pool = workloads.load_reference()["local_equivalence"]
    sides = [c for e in pool for c in workloads.pair_complexes(e)]
    big = max(sides, key=lambda c: c.n)
    systems = [(unknowns(a, b), a, b) for c in sides if c is not big
               for a, b in ((big, c), (c, big))]
    count, a, b = max((s for s in systems if s[0] <= complexes.MAX_LOCAL_MAP_UNKNOWNS),
                      key=lambda s: s[0])

    times = {name: [] for name in ("local_map_columns_ms", "gf2_solvable_ms",
                                   "find_local_map_ms", "validate_ms",
                                   "single_tower_check_ms", "side_tower_ms")}
    columns, solvable = complexes._local_map_columns, complexes.gf2.solvable
    runs = []
    for _ in range(repeats):
        for values in times.values():
            values.clear()
        complexes._local_map_columns = timed(times["local_map_columns_ms"], columns)
        complexes.gf2.solvable = timed(times["gf2_solvable_ms"], solvable)
        try:
            for _ in range(LAYER_CALLS):
                feasible = timed(times["find_local_map_ms"], complexes.find_local_map)(
                    a, b) is not None
        finally:
            complexes._local_map_columns, complexes.gf2.solvable = columns, solvable
        for _ in range(LAYER_CALLS):
            timed(times["validate_ms"], complexes.validate)(big)
        for _ in range(LAYER_CALLS):
            timed(times["single_tower_check_ms"], complexes._single_tower_check)(big)
        for _ in range(LAYER_CALLS):
            timed(times["side_tower_ms"], complexes.IotaComplex._tower.func)(big)
        runs.append({"metrics": {name: {"unit": "ms", "value": min(values)}
                                 for name, values in times.items()}})
    metrics = summarize(runs)
    return {
        "local_map": {"generators": [a.n, b.n], "unknowns": count, "feasible": feasible,
                      "metrics": {name: metrics[name] for name in
                                  ("local_map_columns_ms", "gf2_solvable_ms",
                                   "find_local_map_ms")}},
        "validate": {"generators": big.n, "metrics": {"validate_ms": metrics["validate_ms"]}},
        "towers": {"generators": big.n,
                   "metrics": {name: metrics[name] for name in
                               ("single_tower_check_ms", "side_tower_ms")}},
    }


def record(workloads, repeats: int, seconds: float) -> dict:
    commit = git("rev-parse", "HEAD")
    status = commit and git("status", "--porcelain", "--", "src", "perfbench")
    out = {
        "commit": commit,
        "tree_differs": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "k": repeats,
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = [run_once(workload, seconds) for _ in range(repeats)]
        good = all(r["correct"] and r["exit_code"] == 0 for r in runs)
        ok &= good
        out["workloads"][workload] = {
            "ok": good,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summarize(runs) if all(r["metrics"] for r in runs) else {},
        }
    out["layers"] = layer_timings(repeats)
    out["ok"] = ok
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable); default: all three")
    ap.add_argument("--repeats", type=int, default=3, help="runs per workload, k")
    ap.add_argument("--seconds", type=float, default=20, help="budget per run")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rec = record(args.workload or WORKLOADS, args.repeats, args.seconds)
    args.out.write_text(json.dumps(rec, indent=2) + "\n")
    return 0 if rec["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
