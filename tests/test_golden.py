"""Golden outputs: the serialized oracle complex must not change byte for byte.

The files under ``tests/golden/`` were written by ``complexes.complex_to_json``
(through ``json.dumps(..., indent=2)``) and by ``hfi eval ... --dump-complex
--format json``.  Any change to how maps are stored must leave them intact.
"""

import json
from pathlib import Path

from hfi import complexes
from hfi.cli import main
from hfi.monotone import M, to_profile
from hfi.report import class_complex, evaluate_text
from hfi.roots import standard_complex

GOLDEN = Path(__file__).with_name("golden")
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
