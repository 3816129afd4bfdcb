"""Local-equivalence invariants of plumbed homology three-spheres.

The package computes involutive correction terms (d, d-bar, d-under), the
mu-bar grading shift, and Y-basis decompositions of local-equivalence
classes, three ways that cross-check each other:

- ``complexes``: an exact GF(2)[U] iota-complex oracle (tensor products,
  duals, mapping cones, exact correction terms, local-map search);
- ``roots`` / ``monotone`` / ``localclass``: symmetric graded roots, their
  monotone subroots, and the free-abelian Y-basis calculus;
- ``cterms``: closed-form correction-term formulas and realization families.

``plumbing`` and ``brieskorn`` ingest plumbing trees and Brieskorn spheres;
``expr`` / ``report`` / ``cli`` form the expression frontend (``hfi`` tool).
"""

from .brieskorn import (MAX_SIGMA_ALPHA, BrieskornParams, SigmaSizeError,
                        brieskorn_class, brieskorn_root)
from .complexes import (MAX_LOCAL_MAP_UNKNOWNS, ConeComplex, IotaComplex,
                        SearchSizeError, dual, find_local_map, homology_ranks,
                        iota_complex, locally_equivalent, mapping_cone, tensor,
                        trivial_complex, validate)
from .complexes import correction_terms as complex_correction_terms
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
