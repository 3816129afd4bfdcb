"""Write a benchmark record, ``BENCH_<n>.json``, from repeated benchmark runs.

    python3 tools/bench_record.py --out BENCH_31.json
    python3 tools/bench_record.py --out rec.json --workload local_equivalence --repeats 1 --seconds 1

Each workload runs ``--repeats`` times (k, at least 3 for a record that a
speed claim quotes), one fresh ``perfbench/run.py --trace 0`` process at a
time.  The last line of each run is its JSON result; the record keeps, per
workload and end-to-end metric, every run's value, the median, the range
(min, max) and the spread (max - min) / median.  It also records the
commit and whether ``src/`` or ``perfbench/`` differ from it, the Python
version, the CPU count, k, the seed and the budget per run.  The seed is
fixed at ``SEED``, so two records are always comparable.

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
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
WORKLOADS = ("sigma_sweep", "oracle_cross_check", "local_equivalence")
SEED = 11


def git(*args: str) -> str:
    """Output of a git command in the checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


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


def record(workloads, repeats: int, seconds: float) -> dict:
    out = {
        "commit": git("rev-parse", "HEAD"),
        "tree_differs": bool(git("status", "--porcelain", "--", "src", "perfbench")),
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
