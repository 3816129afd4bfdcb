"""The benchmark record writer, ``tools/bench_record.py``, on a one-second budget.

It runs ``perfbench/run.py`` as a subprocess and writes the record a speed
claim quotes; this checks that one short run gives a record with every key,
a summary for each end-to-end metric and the fixed-input layer timings, also
outside a git checkout.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def test_bench_record_writes_every_key(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--out", str(out),
                           "--workload", "local_equivalence", "--repeats", "1",
                           "--seconds", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert set(rec) == {"commit", "tree_differs", "python", "cpu_count", "k", "seed",
                        "seconds", "workloads", "layers", "ok"}
    assert rec["ok"] and rec["k"] == 1 and rec["seconds"] == 1 and rec["cpu_count"] >= 1
    assert rec["python"] == platform.python_version()
    assert list(rec["workloads"]) == ["local_equivalence"]
    w = rec["workloads"]["local_equivalence"]
    assert w["ok"] and w["failed"] == [0] and w["attempted"][0] > 0
    assert set(w["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    layers = rec["layers"]
    assert set(layers) == {"local_map", "validate", "towers"}
    local_map, validate, towers = layers["local_map"], layers["validate"], layers["towers"]
    assert local_map["generators"] == [165, 63] and local_map["unknowns"] == 5724
    assert local_map["feasible"] is False
    assert set(local_map["metrics"]) == {"local_map_columns_ms", "gf2_solvable_ms",
                                         "find_local_map_ms"}
    assert validate["generators"] == 165 and set(validate["metrics"]) == {"validate_ms"}
    assert towers["generators"] == 165
    assert set(towers["metrics"]) == {"single_tower_check_ms", "side_tower_ms"}
    for m in [*w["metrics"].values(), *local_map["metrics"].values(),
              *validate["metrics"].values(), *towers["metrics"].values()]:
        assert set(m) == {"unit", "values", "median", "range", "spread"}
        assert len(m["values"]) == 1 and m["range"] == [m["median"]] * 2
        assert m["median"] > 0 and m["spread"] == 0


def test_bench_record_outside_a_git_checkout(tmp_path):
    # as in a ``git archive`` copy: git finds no repository, and the record
    # says so with nulls instead of failing
    out, empty = tmp_path / "BENCH.json", tmp_path / "no-git"
    empty.mkdir()
    proc = subprocess.run([sys.executable, str(TOOL), "--out", str(out),
                           "--workload", "local_equivalence", "--repeats", "1",
                           "--seconds", "0.2"], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "GIT_DIR": str(empty)})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["commit"] is None and rec["tree_differs"] is None and rec["ok"]
