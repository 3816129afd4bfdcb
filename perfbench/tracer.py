"""Span and counter recording around calls into ``hfi``, from outside it.

``Tracer.install`` replaces each traced function at every name it is bound
to in the loaded ``hfi`` modules (``hfi.report.brieskorn_class`` as well as
``hfi.brieskorn.brieskorn_class``), and each traced method on its class;
``uninstall`` puts the originals back.  Spans are kept in memory as
(parent span, op id, name, start, end) and written out by ``dump``.  The
benchmark's own ``op`` span is the root of each operation, so op time that no
layer span covers is the ``op`` spans' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expr", "report", "brieskorn", "plumbing", "roots", "monotone",
          "localclass", "cterms", "complexes", "gf2")
# Not traced: ``upoly`` (its methods run millions of times per run; their
# cost is self time of the ``complexes`` callers), ``cli`` (argument parsing
# only, and no workload calls it) and ``gf2.as_mat``, a one-line allocation
# called once per matrix whose wrapper would cost more than its body.
SKIP = {"gf2.as_mat"}
# Private stage boundaries traced in addition to the public functions.
PRIVATE = {"brieskorn": ("_compress_to_profile",),
           "complexes": ("_d_scan", "_cone_scans", "_single_tower_check")}
METHODS = {"complexes": {"Expanded": ("__init__", "boundary_matrix", "cycles",
                                      "boundaries", "umap", "homology_dim",
                                      "probe", "tower_rep")}}


def _count_tau(c, args, out):
    c["brieskorn.tau_steps"] += args[2]


def _count_root(c, args, out):
    c["brieskorn.leaves"] += out.n


def _count_k2(c, args, out):
    c["plumbing.vertices"] += args[0].n


def _count_subroot(c, args, out):
    c["monotone.profile_leaves"] += args[0].n


def _count_terms(c, args, out):
    c["complexes.correction_terms_calls"] += 1
    c["complexes.generators"] += args[0].n


def _count_expanded(c, args, out):
    c["complexes.expanded_builds"] += 1
    c["complexes.expanded_dim"] += sum(len(b) for b in args[0].basis.values())


def _count_rref(c, args, out):
    c["gf2.rref_calls"] += 1
    c["gf2.rref_cells"] += args[0].size


def _count_solve(c, args, out):
    c["gf2.solve_affine_calls"] += 1
    c["gf2.solve_cells"] += args[0].size


def _count_localmap(c, args, out):
    c["complexes.find_local_map_calls"] += 1
    c["complexes.localmap_feasible"] += out is not None


COUNTERS = {
    "brieskorn.tau_sequence": _count_tau,
    "brieskorn.brieskorn_root": _count_root,
    "plumbing.k_squared": _count_k2,
    "monotone.monotone_subroot": _count_subroot,
    "complexes.correction_terms": _count_terms,
    "complexes.Expanded.__init__": _count_expanded,
    "gf2.rref": _count_rref,
    "gf2.solve_affine": _count_solve,
    "complexes.find_local_map": _count_localmap,
}


class Tracer:
    def __init__(self):
        self.spans: list = []   # index = span id
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kw):
        """Run fn(*args, **kw) inside a span called ``name``."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (parent, self.op_id, name, t0, t1)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kw):
            out = call(name, fn, *args, **kw)
            if count:
                count(self.counters, args, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "hfi" or k.startswith("hfi.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"hfi.{layer}")
            names = [k for k, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not k.startswith("_")] + list(PRIVATE.get(layer, ()))
            for attr in names:
                if f"{layer}.{attr}" in SKIP:
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            self._patches.append((m, k, original))
                            setattr(m, k, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr,
                            self._wrap(f"{layer}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(inclusive, self) seconds per span name.

        Inclusive time counts only the outermost span of each name on a
        path, so a recursive call is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for sid, (parent, _, name, t0, t1) in enumerate(self.spans):
            own[name] += t1 - t0 - child[sid]
            p = parent
            while p >= 0 and self.spans[p][2] != name:
                p = self.spans[p][0]
            if p < 0:
                incl[name] += t1 - t0
        return incl, own

    def dump(self, path, op_labels: list[str]) -> None:
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"columns": ["parent", "op", "name", "start_s", "end_s"],
                       "names": names, "ops": op_labels,
                       "counters": dict(self.counters),
                       "spans": [[p, o, code[n], round(t0, 7), round(t1, 7)]
                                 for p, o, n, t0, t1 in self.spans]},
                      f, separators=(",", ":"))
