"""The benchmark's tracer must still find every hook it patches in ``hfi``.

``perfbench/tracer.py`` wraps private stage boundaries (``_d_scan``,
``_cone_scans``, ``_single_tower_check``, ``_compress_to_profile``) and the
methods of ``complexes.Expanded`` by name, and its counter for
``Expanded.__init__`` reads the model's ``basis``.  A rename in ``hfi``
breaks the traced benchmark runs; this test makes it break tier-1 too.
"""

import importlib.util
from pathlib import Path

from hfi import complexes
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
        terms = complexes.correction_terms(c)
        diag = complexes.validate(c)
    finally:
        tracer.uninstall()
    assert (complexes.correction_terms, complexes.Expanded.__dict__["__init__"]) == originals
    assert terms == complexes.correction_terms(c) and diag.ok
    names = {span[2] for span in tracer.spans}
    for hook in ("complexes.correction_terms", "complexes._d_scan",
                 "complexes._cone_scans", "complexes._single_tower_check",
                 "complexes.mat_mul", "complexes.mapping_cone",
                 "complexes.Expanded.__init__", "complexes.Expanded.cycles"):
        assert hook in names, hook
    # correction_terms builds two models per truncation, validate one
    assert tracer.counters["complexes.expanded_builds"] == 5
    assert tracer.counters["complexes.expanded_dim"] > 0
