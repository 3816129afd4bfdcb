"""Golden outputs: the serialized oracle complex must not change byte for byte.

The files under ``tests/golden/`` were written by ``complexes.complex_to_json``
(through ``json.dumps(..., indent=2)``) and by ``hfi eval ... --dump-complex
--format json``, when maps were still stored as explicit (row, U-exponent)
pairs.  Maps are now bit columns whose exponents are implied by the
gradings, and ``complex_to_json`` recomputes each exponent as
e = (gr(x_i) - gr(x_j) - degree) / 2, so the files must stay intact.
Complexes carry no truncation N any more, so the one line each complex
file had for it, ``"truncation": 8``, is deleted; every other byte is as
first written.  Raw
(row, exponent) input is read, and its degrees checked, only once, by
``iota_complex``; the complexes here are built from bit columns directly.

``local_map_witnesses.json`` holds ``find_local_map``'s F and H, as sorted
(row, U-exponent) pairs per column, written by the dense GF(2) solver
that the bitset core replaced.  The test expands the witness's bit columns
with ``dense_reference.expand_map``: F has degree 0 and H degree +1, read
off the source and target gradings.  The sides are tensor products of standard
complexes of symmetric root profiles: the 165 <-> 21 generator pair of
locally equivalent complexes (both directions feasible) and a 35 <-> 9 pair
whose 35 -> 9 direction is infeasible.  The solution with free unknowns zero
is unique once the unknowns are ordered, whatever the numbering of the
equations, so any difference means the order of the unknowns drifted.

``perfbench/reference.json`` records the Y-basis class of every sphere of
the benchmark's ``sigma_sweep`` pool; the test reads the file and evaluates
each of them again.
"""

import json
from pathlib import Path

from dense_reference import expand_map
from hfi import complexes
from hfi.cli import main
from hfi.monotone import M, to_profile
from hfi.report import class_complex, evaluate_text
from hfi.roots import SymmetricRootProfile, standard_complex

GOLDEN = Path(__file__).with_name("golden")
BENCH_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"
EXPR = "Y(1) - Y(2) + I[-2]"


def _dumped(c) -> str:
    return json.dumps(complexes.complex_to_json(c), indent=2) + "\n"


def test_complex_to_json_of_class_complex():
    c = class_complex(evaluate_text(EXPR).total)
    assert _dumped(c) == (GOLDEN / "class_y1_minus_y2_shift.json").read_text()


def test_complex_to_json_of_standard_complex():
    c = standard_complex(to_profile(M(4, 0, 2, 2)))
    assert _dumped(c) == (GOLDEN / "std_4_0_2_2.json").read_text()


def test_cli_dump_complex_json(capsys):
    assert main(["eval", EXPR, "--dump-complex", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "eval_dump_complex.json").read_text()


def test_cli_dump_complex_text(capsys):
    # the text report, then the complex as in the JSON dump
    assert main(["eval", EXPR, "--dump-complex"]) == 0
    dumped = json.loads((GOLDEN / "eval_dump_complex.json").read_text())["complex"]
    assert capsys.readouterr().out == (evaluate_text(EXPR).to_text() + "\n"
                                       + json.dumps(dumped, indent=2) + "\n")


def _side(profiles):
    c = None
    for leaves, angles in profiles:
        f = standard_complex(SymmetricRootProfile(tuple(leaves), tuple(angles)))
        c = f if c is None else complexes.tensor(c, f)
    return c


def test_local_map_witnesses():
    def cols(m, a, b, degree):
        return [sorted([i, e] for i, e in col)
                for col in expand_map(m, a.gradings, b.gradings, degree)]

    for entry in json.loads((GOLDEN / "local_map_witnesses.json").read_text()):
        a, b = _side(entry["source"]), _side(entry["target"])
        w = complexes.find_local_map(a, b)
        got = None if w is None else {"F": cols(w.F, a, b, 0), "H": cols(w.H, a, b, 1)}
        assert got == entry["witness"], entry["pair"]


def test_every_recorded_sigma_sweep_class_is_reproduced():
    pool = json.loads(BENCH_REFERENCE.read_text())["sigma_sweep"]
    assert len(pool) == 94
    for entry in pool:
        text = "Sigma({},{},{})".format(*entry["triple"])
        assert evaluate_text(text).total.to_json() == entry["class"], text
