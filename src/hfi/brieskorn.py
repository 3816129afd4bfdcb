"""Brieskorn spheres: Seifert plumbing graphs, tau sequences, graded roots.

Sigma(a1, a2, a3) bounds a star-shaped negative-definite plumbing with
central weight -b0 and one arm per fiber carrying the negative continued
fraction of a_i/omega_i, where omega_i inverts -(alpha/a_i) mod a_i
(alpha = a1 a2 a3) and b0 = (1 + sum omega_i alpha/a_i)/alpha.

The graded root comes from the computation-sequence function tau: starting
from the zero cycle, repeatedly add the central vertex and take the Laufer
closure over the other vertices; tau(n) is the Euler characteristic chi of
the n-th cycle.  Local minima of tau are the leaves, the maxima between them
the angles, and tau-value t sits at grading -2t + (K^2 + s)/4 in the
h-normalized convention (HF-minus gradings are 2 lower).

For Seifert spheres the differences of tau have a closed form (Nemethi,
"On the Ozsvath-Szabo invariant of negative definite plumbed
3-manifolds", Geom. Topol. 9 (2005); Can-Karakurt, "Calculating Heegaard
Floer absolute gradings from Seifert invariants", Algebr. Geom. Topol. 14
(2014)):

    Delta(n) = tau(n+1) - tau(n) = 1 + b0 n - sum_i ceil(n omega_i / a_i).

Two tau engines are kept.  Production (``brieskorn_root``) uses the closed
form, ``tau_closed_form``: O(alpha) integer steps streamed straight into
the extrema compression, so memory is O(leaves).  The cross-check is
``tau_sequence``, the Laufer sequence on the plumbing tree itself; the
tests compare the two step for step.  K^2 comes from one O(n) elimination
along the tree (``plumbing.k_squared``).  alpha is capped at
MAX_SIGMA_ALPHA: spheres near the cap took 1.0-1.6 s each with CPython
3.11 on one core of a shared x86-64 server.  A larger sphere raises
SigmaSizeError, a ValueError, before any tau step.

Orientation: Sigma(a1, a2, a3) is oriented as the boundary of its
negative-definite plumbing, i.e. as the link of the singularity
x^a1 + y^a2 + z^a3 = 0; -Sigma(a1, a2, a3) is the opposite orientation.
For almost-rational plumbings d-bar = d and d-underbar = -2 mu-bar
(Dai-Manolescu, arXiv:1704.02020, Thm 1.2; Dai-Stoffregen,
arXiv:1710.08055).  So Sigma(2,3,5), which bounds the even E8 plumbing of
signature -8, has mu-bar = -1 and (d, d-bar, d-underbar) = (2, 2, 2): its
class is I[-2], and -Sigma(2,3,5) is I[2] with d = -2.  Sigma(2,3,7) has
(0, 0, -2) and mu-bar = 1 (Hendricks-Manolescu, arXiv:1507.00383).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat, tee
from operator import floordiv, sub

from .localclass import LocalClass
from .monotone import MonotoneRoot, decompose, monotone_subroot
from .plumbing import PlumbingGraph, k_squared, laufer_closure
from .roots import SymmetricRootProfile

# Largest alpha = a1 a2 a3 that brieskorn_root accepts (see the module docstring).
MAX_SIGMA_ALPHA = 1_000_000


class SigmaSizeError(ValueError):
    """alpha = a1 a2 a3 of a Brieskorn sphere exceeds MAX_SIGMA_ALPHA."""


@dataclass(frozen=True)
class BrieskornParams:
    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        a = (self.a1, self.a2, self.a3)
        if not (2 <= a[0] < a[1] < a[2]):
            raise ValueError("need 2 <= a1 < a2 < a3")
        if (math.gcd(a[0], a[1]) != 1 or math.gcd(a[0], a[2]) != 1
                or math.gcd(a[1], a[2]) != 1):
            raise ValueError("fiber multiplicities must be pairwise coprime")

    @property
    def tuple(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """p/q = x1 - 1/(x2 - 1/(...)) with all x_j >= 2 (0 < q < p)."""
    out = []
    while q > 0:
        x = -(-p // q)  # ceil
        out.append(x)
        p, q = q, x * q - p
    return out


def seifert_invariants(b: BrieskornParams) -> tuple[int, tuple[int, int, int]]:
    """(b0, (omega_1, omega_2, omega_3)) of Sigma(a1, a2, a3).

    omega_i inverts -(alpha/a_i) mod a_i, so 1 <= omega_i < a_i, and
    b0 = (1 + sum omega_i alpha/a_i)/alpha, so the Euler number
    -b0 + sum omega_i/a_i is -1/alpha.
    """
    a = b.tuple
    alpha = a[0] * a[1] * a[2]
    omegas = tuple((-pow((alpha // ai) % ai, -1, ai)) % ai for ai in a)
    num = 1 + sum(w * (alpha // ai) for w, ai in zip(omegas, a))
    if num % alpha:
        raise AssertionError("central weight is not integral; bad Seifert data")
    return num // alpha, omegas


def seifert_plumbing(b: BrieskornParams) -> tuple[PlumbingGraph, str]:
    """Negative-definite plumbing tree of Sigma(a1,a2,a3) and its central vertex."""
    b0, omegas = seifert_invariants(b)
    verts: list[tuple[str, int]] = [("c", -b0)]
    edges: list[tuple[str, str]] = []
    for arm, (ai, wi) in enumerate(zip(b.tuple, omegas), 1):
        prev = "c"
        for j, x in enumerate(negative_continued_fraction(ai, wi), 1):
            vid = f"a{arm}.{j}"
            verts.append((vid, -x))
            edges.append((prev, vid))
            prev = vid
    return PlumbingGraph(tuple(verts), tuple(edges)), "c"


def tau_sequence(g: PlumbingGraph, center: str, steps: int) -> list[int]:
    """tau(0..steps) along the generalized Laufer computation sequence.

    x(0) = 0 and x(v+1) is the Laufer closure of x(v) + E_center over the
    non-central vertices.  Each single addition of E_v changes chi by
    1 - <x, E_v>, so chi is maintained incrementally with exact integers.
    This is the cross-check engine: it works on any plumbing tree, and the
    tests compare it step for step with ``tau_closed_form``.
    """
    c = g.ids().index(center)
    weights = g.weights()
    adj = g.adjacency()
    pairing = [0] * g.n  # <x, E_v>
    chi_val = 0
    taus = [0]
    for _ in range(steps):
        chi_val += 1 - pairing[c]
        pairing[c] += weights[c]
        for w in adj[c]:
            pairing[w] += 1
        chi_val += laufer_closure(weights, adj, pairing, list(adj[c]), fixed=c)
        taus.append(chi_val)
    return taus


def _tau_deltas(b: BrieskornParams, start: int, stop: int) -> Iterator[int]:
    """Delta(n) = 1 + b0 n - sum_i ceil(n omega_i / a_i) for start <= n < stop.

    Built from C-level iterators over ranges: ceil(n w / a) is
    (n w + a - 1) // a, and no per-step Python code runs.
    """
    b0, omegas = seifert_invariants(b)
    deltas = range(1 + start * b0, 1 + stop * b0, b0)
    for ai, wi in zip(b.tuple, omegas):
        ceils = map(floordiv, range(start * wi + ai - 1, stop * wi + ai - 1, wi),
                    repeat(ai))
        deltas = map(sub, deltas, ceils)
    return deltas


def tau_closed_form(b: BrieskornParams, steps: int) -> Iterator[int]:
    """tau(0..steps) of Sigma(a1,a2,a3) from the closed form, as a stream."""
    return accumulate(_tau_deltas(b, 0, steps), initial=0)


def _compress_to_profile(taus: Iterable[int]) -> tuple[list[int], list[int]]:
    """Leaf/angle tau values: local minima and the maxima between them.

    One pass over the nonzero differences, grouped into runs of one sign:
    a leaf starts each rising run and ends a final falling run, and the top
    of each rising run that a falling run follows is an angle.  ``taus`` may
    be any iterable; only the extrema are stored.
    """
    prev, nxt = tee(taus)
    t = next(nxt, None)
    if t is None:
        return [], []
    leaves: list[int] = []
    angles: list[int] = []
    rising = None
    steps = filter(None, map(sub, nxt, prev))
    for rising, run in groupby(steps, (0).__lt__):
        if rising:
            leaves.append(t)
            t += sum(run)
            angles.append(t)
        else:
            t += sum(run)
    if rising:
        angles.pop()  # the last rising run is not followed by a leaf
    else:
        leaves.append(t)
    return leaves, angles


def brieskorn_root(b: BrieskornParams,
                   max_steps: int | None = None) -> SymmetricRootProfile:
    """Graded-root profile of Sigma(a1,a2,a3), h-normalized gradings.

    The tau sequence is run until the central multiplicity passes 2*alpha
    (plus margin) and the tail is strictly increasing well above the global
    minimum, so the finite part of the root is complete: the last 33 values
    must rise strictly and end at least 8 above the minimum.  The tail is
    checked first, from its closed-form differences, and then the whole
    sequence is streamed into the extrema compression.
    """
    alpha = b.a1 * b.a2 * b.a3
    if alpha > MAX_SIGMA_ALPHA:
        raise SigmaSizeError(
            f"Sigma({b.a1},{b.a2},{b.a3}) has alpha = {alpha}, above the "
            f"limit MAX_SIGMA_ALPHA = {MAX_SIGMA_ALPHA}")
    steps = max_steps or (2 * alpha + 16)
    # The last min(32, steps) differences: when all are positive, the
    # sequence ends at least 32 above its minimum, or for steps < 32 it rises
    # from tau(0) = 0, its minimum, to their sum.
    tail = list(_tau_deltas(b, max(0, steps - 32), steps))
    if not (all(d > 0 for d in tail) and sum(tail) >= 8):
        raise RuntimeError("tau sequence tail not clearly increasing; "
                           "raise max_steps")
    leaf_taus, angle_taus = _compress_to_profile(tau_closed_form(b, steps))
    g, _ = seifert_plumbing(b)
    offset = (k_squared(g) + g.n) / 4
    leaves = [-2 * t + offset for t in leaf_taus]
    angles = [-2 * t + offset for t in angle_taus]
    return SymmetricRootProfile(tuple(leaves), tuple(angles))


def brieskorn_monotone(b: BrieskornParams) -> MonotoneRoot:
    return monotone_subroot(brieskorn_root(b))


def brieskorn_class(b: BrieskornParams) -> tuple[SymmetricRootProfile, LocalClass]:
    """(graded-root profile, local class) of a Brieskorn sphere."""
    profile = brieskorn_root(b)
    return profile, decompose(monotone_subroot(profile))
