"""The benchmark's tracer must still find every hook it patches in ``hfi``.

``perfbench/tracer.py`` wraps private stage boundaries (``_d_scan``,
``_cone_scans``, ``_single_tower_check``, ``_compress_to_profile``) and the
methods of ``complexes.Expanded`` by name, and its counter for
``Expanded.__init__`` reads the model's ``basis``.  A rename in ``hfi``
breaks the traced benchmark runs; these tests make it break tier-1 too.
The scans run only on the truncated reference path,
``dense_reference.truncated_correction_terms``; ``correction_terms`` and
``validate`` build no ``Expanded``.  The local-equivalence metrics (``find_local_map`` spans and
calls, the feasible fraction, ``solve_homotopy`` self time) rest on the
hooks that ``locally_equivalent`` and ``validate`` reach through module
globals.  ``locally_equivalent`` decides each direction with
``gf2.solvable`` and reads no witness; its elimination is the
``gf2.solvable`` span.  A witness is solved by ``complexes._solve``, one
tagged ``gf2.Echelon`` pass that the tracer does not wrap, so the
``gf2.solve_affine_self_s`` and ``gf2.solve_cells`` metrics, kept for a
function ``gf2`` no longer has, read 0 on every workload; a witness read
under the installed tracer still gives the untraced maps.
"""

import importlib.util
from pathlib import Path

from dense_reference import default_truncation, truncated_correction_terms
from hfi import complexes
from hfi.complexes import dual, iota_complex, tensor
from hfi.monotone import M, to_profile
from hfi.roots import standard_complex

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_a_traced_oracle_call():
    tracer = _load_tracer().Tracer()
    c = standard_complex(to_profile(M(4, 0, 2, 2)))
    originals = (complexes.correction_terms, complexes.Expanded.__dict__["__init__"])
    tracer.install()
    try:
        exact = complexes.correction_terms(c)
        exact_builds = tracer.counters["complexes.expanded_builds"]
        terms = truncated_correction_terms(c, default_truncation(c.gradings))
        # a raw copy runs the checks that the built complex keeps
        diag = complexes.validate(complexes.IotaComplex(c.labels, c.offsets, c.diff,
                                                        c.iota, c.tau))
    finally:
        tracer.uninstall()
    assert (complexes.correction_terms, complexes.Expanded.__dict__["__init__"]) == originals
    assert exact == terms == complexes.correction_terms(c) and diag.ok
    # the exact pass builds no expanded model
    assert exact_builds == 0
    names = {span[2] for span in tracer.spans}
    for hook in ("complexes.correction_terms", "complexes._d_scan",
                 "complexes._cone_scans", "complexes._single_tower_check",
                 "complexes.mat_mul", "complexes.Expanded.__init__",
                 "complexes.Expanded.cycles"):
        assert hook in names, hook
    # the truncated reference makes one pass, with a base model and a cone
    # model; validate builds none
    assert tracer.counters["complexes.expanded_builds"] == 2
    assert tracer.counters["complexes.expanded_dim"] > 0


def _traced(fn, *args):
    """(result, span names, counters) of fn(*args) run under the tracer."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        out = fn(*args)
    finally:
        tracer.uninstall()
    return out, {span[2] for span in tracer.spans}, tracer.counters


def test_tracer_sees_both_local_map_searches():
    a = standard_complex(to_profile(M(4, 0, 2, 2)))
    b = tensor(a, tensor(standard_complex(to_profile(M(2, 0))),
                         dual(standard_complex(to_profile(M(2, 0))))))
    equivalent, names, counters = _traced(complexes.locally_equivalent, a, b)
    assert equivalent
    assert "complexes.find_local_map" in names
    assert counters["complexes.find_local_map_calls"] == 2
    assert counters["complexes.localmap_feasible"] == 2


def test_a_witness_read_under_the_tracer_is_the_untraced_one():
    a = standard_complex(to_profile(M(4, 0, 2, 2)))
    b = tensor(a, tensor(standard_complex(to_profile(M(2, 0))),
                         dual(standard_complex(to_profile(M(2, 0))))))
    want = complexes.find_local_map(a, b)
    F, names, counters = _traced(lambda: complexes.find_local_map(a, b).F)
    assert F == want.F
    assert "complexes.find_local_map" in names
    assert counters["complexes.localmap_feasible"] == 1
    # no gf2 function solves a witness, so no solve counter moves
    assert counters["gf2.solve_cells"] == 0


def test_tracer_sees_the_homotopy_solve_only_when_iota_squared_is_not_id():
    c = standard_complex(to_profile(M(2, 0)))
    diag, names, _ = _traced(complexes.validate, c)
    assert diag.ok and "complexes.solve_homotopy" not in names
    # the iota on std(2, 0) with iota^2(v2) = 0 of test_complexes.py
    bad = iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                       [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tau=c.tau)
    diag, names, counters = _traced(complexes.validate, bad)
    assert [name for name, _ in diag.failed()] == ["iota^2 ~ id"]
    assert "complexes.solve_homotopy" in names
    # neither validate nor the homotopy solve builds a model
    assert counters["complexes.expanded_builds"] == 0
