"""The README's command lines and library tour, and the demos, run as written.

The source paper's results reach a reader through these: Sigma(2,3,5) is
I[-2], ``hfi eval ... --oracle`` agrees with the closed form, and the root
complexes of Brieskorn spheres are locally equivalent to the complexes of
their classes.  So each check here fails tier-1 when one of them stops
running as written.

* Every ``hfi ...`` line of the fenced block under "## Command line" (up to
  the first line that is exactly three backticks) runs in order through
  ``hfi.cli.main`` and must exit 0.  They run in a temporary directory
  holding a small plumbing ``graph.txt``: the Sigma(2,3,7) star, which is
  not rational, so ``--check ar`` lowers a weight.  ``hfi root ... -o
  root.txt`` writes the file that ``hfi decompose root.txt`` reads.
* Each ``hfi eval`` line runs again with ``--oracle`` appended, after its
  ``#`` comment is cut (or the flag would land inside it), so the oracle
  cross-checks every README class on an explicit complex.
* The ``python`` block under "## Library tour" runs in a fresh namespace;
  its asserts check the engines against each other.
* Each ``demos/*.py`` runs as ``__main__``.  The demos call
  ``tau_sequence``, ``k_squared`` and ``is_negative_definite`` directly, so
  they also guard the public API.  Demo 01 asserts that
  ``brieskorn_root``'s closed forms agree with the plumbing: the semigroup
  tau steps (``_semigroup_deltas``) with ``tau_sequence``, and K^2 + s
  from Dedekind sums (``_k_squared_plus_s``) with k_squared(graph) +
  graph.n, and that the Laufer tau is symmetric, tau(m) = tau(N0 + 1 - m),
  which is what lets ``brieskorn_root`` stream only the first half of the
  steps.  Demo 05 asserts that the root complexes of Sigma(2,3,7),
  Sigma(5,8,13) and Sigma(5,8,13) - Sigma(2,7,15) are locally equivalent
  to ``report.class_complex`` of their classes, and that Sigma(2,3,7) and
  Sigma(2,3,11) are not.
* One ``python -m hfi.cli eval`` runs as a subprocess, so the module entry
  point stays covered, with ``PYTHONWARNINGS=error``; in process,
  pyproject.toml's ``filterwarnings = ["error", ...]`` fails a check that
  warns.
"""

import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hfi.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GRAPH = ("vertex c -1\nvertex a1.1 -2\nvertex a2.1 -3\nvertex a3.1 -7\n"
         "edge c a1.1\nedge c a2.1\nedge c a3.1\n")


def _lines_after(first: str, start: int = 0) -> list[str]:
    """The README lines after the line ``first``, the first one from line
    ``start`` on, up to the next line that is exactly three backticks."""
    begin = README.index(first, start) + 1
    return README[begin:README.index("```", begin)]


def test_readme_command_lines_exit_0_and_each_eval_agrees_with_the_oracle(
        tmp_path, monkeypatch, capsys):
    commands = [line for line in _lines_after("## Command line")
                if line.startswith("hfi ")]
    assert commands
    (tmp_path / "graph.txt").write_text(GRAPH)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        runs = [line]
        if line.startswith("hfi eval "):
            runs.append(line.partition("#")[0] + " --oracle")
        for run in runs:
            code = main(shlex.split(run, comments=True)[1:])
            assert code == 0, (run, capsys.readouterr().err)


def test_readme_library_tour_runs():
    tour = "\n".join(_lines_after("```python", README.index("## Library tour")))
    assert tour
    exec(compile(tour, "README.md (Library tour)", "exec"), {"__name__": "readme_tour"})


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    runpy.run_path(str(demo), run_name="__main__")


def test_the_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hfi.cli", "eval", "Sigma(2,3,5)"],
        capture_output=True, encoding="utf-8", timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stderr
    assert "total:      (0)[Δ=-2]" in proc.stdout  # Sigma(2,3,5) is I[-2]
