"""Local-equivalence invariants of plumbed homology three-spheres.

The package computes involutive correction terms (d, d-bar, d-under), the
mu-bar grading shift, and Y-basis decompositions of local-equivalence
classes, three ways that cross-check each other:

- ``complexes``: an exact GF(2)[U] iota-complex oracle (tensor products,
  duals, exact correction terms read off the mapping cone of Q(1 + iota),
  local-map search);
- ``roots`` / ``monotone`` / ``localclass``: symmetric graded roots, their
  monotone subroots, and the free-abelian Y-basis calculus;
- ``cterms``: closed-form correction-term formulas and realization families.

``plumbing`` and ``brieskorn`` ingest plumbing trees and Brieskorn spheres;
``expr`` / ``report`` / ``cli`` form the expression frontend (``hfi`` tool).

``complexes`` and ``gf2`` load on first use: evaluating Brieskorn spheres,
roots and classes never imports them.  The names this package takes from
``complexes`` are served on first access (PEP 562).
"""

from types import ModuleType as _ModuleType

from .brieskorn import (MAX_SIGMA_ALPHA, BrieskornParams, SigmaSizeError,
                        brieskorn_class, brieskorn_root)
from .cterms import (MAX_CLASS_WEIGHT, ClassWeightError, STProfile,
                     asymptotic_check, correction_terms, lemma_identity,
                     realization_family, stabilized_terms)
from .expr import ExpressionAST, ParseError, parse
from .localclass import (I, LocalClass, SphericalParams, Y, d_invariant,
                         mu_bar, realizability_check, rokhlin,
                         spherical_params, zero)
from .monotone import (M, MonotoneRoot, WeaklyMonotoneRoot, decompose,
                       delta_tilde, monotone_subroot, simplify_weak, swap,
                       to_profile)
from .plumbing import (PlumbingGraph, canonical_K, graph_from_text,
                       graph_to_text, is_almost_rational, is_negative_definite,
                       is_rational, k_squared, minimal_cycle)
from .report import Report, evaluate, evaluate_text
from .roots import (SymmetricRootProfile, profile_from_text, profile_to_text,
                    standard_complex)

__version__ = "0.1.0"

# this package's name -> the name in ``complexes``
_FROM_COMPLEXES = {name: name for name in (
    "MAX_LOCAL_MAP_UNKNOWNS", "IotaComplex", "SearchSizeError",
    "dual", "find_local_map", "homology_ranks", "iota_complex",
    "locally_equivalent", "tensor", "trivial_complex",
    "validate")} | {"complex_correction_terms": "correction_terms"}

# the names imported above, not the submodules that importing them binds
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_FROM_COMPLEXES))


def __getattr__(name: str):
    if name in _FROM_COMPLEXES:
        from . import complexes

        return getattr(complexes, _FROM_COMPLEXES[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FROM_COMPLEXES))
