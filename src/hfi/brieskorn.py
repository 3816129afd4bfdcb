"""Brieskorn spheres: Seifert plumbing graphs, tau sequences, graded roots.

Sigma(a1, a2, a3) bounds a star-shaped negative-definite plumbing with
central weight -b0 and one arm per fiber carrying the negative continued
fraction of a_i/omega_i, where omega_i inverts -(alpha/a_i) mod a_i
(alpha = a1 a2 a3) and b0 = (1 + sum omega_i alpha/a_i)/alpha.

The graded root comes from the computation-sequence function tau: starting
from the zero cycle, repeatedly add the central vertex and take the Laufer
closure over the other vertices; tau(n) is the Euler characteristic chi of
the n-th cycle.  Local minima of tau are the leaves and the maxima between
them the angles.

For Seifert spheres the differences of tau have a closed form (Nemethi,
"On the Ozsvath-Szabo invariant of negative definite plumbed
3-manifolds", Geom. Topol. 9 (2005); Can-Karakurt, "Calculating Heegaard
Floer absolute gradings from Seifert invariants", Algebr. Geom. Topol. 14
(2014)):

    Delta(n) = tau(n+1) - tau(n) = 1 + b0 n - sum_i ceil(n omega_i / a_i),

and Can-Karakurt read it off the semigroup G generated by a2 a3, a1 a3 and
a1 a2: with N0 = alpha - a1 a2 - a1 a3 - a2 a3,

    Delta(n) = [n in G] - [N0 - n in G]    for 0 <= n < alpha,

while Delta(n + alpha) = Delta(n) + 1 for n >= 0, as b0 alpha -
sum_i omega_i alpha/a_i = 1.

Two tau engines are kept.  Production (``brieskorn_root``) streams the
semigroup form through ``_semigroup_deltas``.  One int holds the membership
bits of G in [0, N0]: starting from bit 0, each generator g shifts it in by
doubling, m |= m << s for s = g, 2g, 4g, ... <= N0, which adds every
multiple of g up to N0.  ``format`` writes it as one string of N0 + 1
binary digits, so digit j is [N0 - j in G]: read forwards the string gives
[N0 - n in G], read backwards [n in G], and the steps are ``map(sub, ...)``
over the two slices, with no per-step Python code.  The steps go straight
into the extrema compression, which keeps only the leaves and angles, so
memory is O(N0) bytes plus the leaves.  The cross-check is
``tau_sequence``, the Laufer sequence on the plumbing tree itself; the tests
compare the engines step for step, and keep the ceiling formula and its
period tables as references.

Stopping rule.
(1) The tail.  For N0 < n < alpha, N0 - n < 0 is not in G, so
    Delta(n) = [n in G] >= 0, and for n >= alpha,
    Delta(n) = Delta(n mod alpha) + n // alpha >= -1 + 1: tau is
    nondecreasing from N0 + 1 on (and tends to infinity).
(2) The antisymmetry.  Delta(N0 - n) = [N0 - n in G] - [n in G] = -Delta(n)
    for 0 <= n <= N0: the steps pair off, tau(N0 + 1) = 0 = tau(0), and
    tau(m) = tau(N0 + 1 - m).  Also Delta(0) = 1, the ceiling form at 0.
So with M = ceil(N0/2), the nonzero steps of Delta(0..N0) are those of
Delta(0..M-1) followed by their negatives in reverse order (for even N0 the
middle step Delta(N0/2) is 0), and only rises follow.  The two runs that
meet at tau(M) have opposite signs, so the profile is the half's extrema,
then tau(M), which is the central angle when the half ends on a rise and
the central leaf otherwise, then the half's extrema mirrored.
``brieskorn_root`` streams the M half steps and then one -1 step into the
compression: the -1 turns a final rise into an angle at tau(M) and extends
a final fall, so either way the last leaf is tau(M) - 1, and tau(M) is an
angle exactly when the last angle equals it.  Sigma(2,3,5) has N0 = -1, no
step and the single leaf tau(0) = 0.  M = (alpha - a1 a2 - a1 a3 - a2 a3)/2
rounded up is below alpha/2, where the bound Delta >= 0 from n = alpha on
alone would need alpha + 1 steps.

The grading offset needs K^2 + s of the plumbing, which ``brieskorn_root``
reads from the Seifert invariants without building the plumbing.  With
Euler number e = -1/alpha and eps = (1 - sum_i 1/a_i)/e,

    K^2 + s = eps^2 e + e + 5 - 12 sum_i s(omega_i, a_i)

(Nemethi-Nicolaescu, "Seiberg-Witten invariants and surface singularities",
Geom. Topol. 6 (2002)), where s(h, k) is the Dedekind sum, computed in
O(log k) integer steps by reciprocity (Rademacher-Grosswald, "Dedekind
Sums", 1972).  ``plumbing.k_squared``, one elimination along the tree, stays
as the independent check that the tests and demo 01 run.  alpha is capped at
MAX_SIGMA_ALPHA: Sigma(2,3,166663), Sigma(11,13,6991) and Sigma(97,101,102),
near the cap with 27,720 to 38,065 leaves, took 21, 53 and 65 ms (best of
5; the period-table stream of the ceiling form took 48, 105 and 130 ms in
the same session), with CPython 3.11 on one core of a shared x86-64
server; tracemalloc's peak was at most 5.8 MB, no higher than with the
period tables.  A larger sphere raises SigmaSizeError, a ValueError,
before any tau step.

Grading conventions.
* h-normalized gradings (every profile, complex and class inside ``hfi``):
  the 3-sphere's tower is topped at grading 0, so S^3 has
  (d, d-bar, d-underbar) = (0, 0, 0).  HF-minus gradings are 2 lower; root
  profile files use them, and ``hfi.roots`` applies the shift once on read
  and once on write.
* tau-value t sits at grading -2t + (K^2 + s)/4, with K the canonical class
  of the plumbing and s its number of vertices.  The offset (K^2 + s)/4 is
  an even integer for a homology sphere: the intersection form is
  unimodular and K is characteristic, so K^2 = signature = -s (mod 8) (van
  der Blij), and K^2 + s is divisible by 8.  So every leaf and angle
  grading is an even integer, computed in ints.
* I[Delta] is a single tower starting at grading -Delta, so
  d(I[Delta]) = -Delta and mu-bar(I[Delta]) = Delta/2 (``hfi.localclass``).

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
from itertools import chain, groupby
from operator import sub

from .localclass import LocalClass
from .monotone import decompose, monotone_subroot
from .plumbing import PlumbingGraph, is_negative_definite, laufer_closure
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
        for name, ai in zip(("a1", "a2", "a3"), a):
            if type(ai) is not int:
                raise ValueError(f"{name} = {ai!r} is not an int")
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
    This is the cross-check engine: it works on any negative-definite
    plumbing tree, and the tests compare it step for step with the closed
    form.  A center that is not a vertex, a ``steps`` that is not a
    non-negative int (a bool is not an int), or a tree that is not negative
    definite (where the closure need not end) raises ValueError before any
    step.
    """
    if type(steps) is not int or steps < 0:
        raise ValueError(f"steps {steps!r} is not a non-negative int")
    if center not in g.index:
        raise ValueError(f"center {center!r} is not a vertex of the graph")
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    c = g.index[center]
    weights = g.weights()
    adj = g.adj
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


def _semigroup_deltas(b: BrieskornParams, stop: int) -> Iterator[int]:
    """Delta(n) = [n in G] - [N0 - n in G] for 0 <= n < stop <= N0 + 1.

    G is the semigroup generated by a2 a3, a1 a3 and a1 a2; the bits of G
    in [0, N0] are built by doubling shifts and read as one string, as in
    the module docstring.
    """
    a1, a2, a3 = b.tuple
    n0 = a1 * a2 * a3 - a1 * a2 - a1 * a3 - a2 * a3
    below = (1 << (n0 + 1)) - 1  # keeps the bits of [0, N0]
    members = 1
    for g in (a2 * a3, a1 * a3, a1 * a2):
        shift = g
        while shift <= n0:
            members |= members << shift
            shift += shift
        members &= below
    # digit j is [N0 - j in G]
    digits = format(members, f"0{n0 + 1}b").encode()
    return map(sub, digits[::-1][:stop], digits[:stop])


def _compress_to_profile(deltas: Iterable[int]) -> tuple[list[int], list[int]]:
    """Leaf/angle tau values of the sequence with tau(0) = 0 and steps
    ``deltas``: its local minima and the maxima between them.

    One pass over the nonzero steps, grouped into runs of one sign: a leaf
    starts each rising run and ends a final falling run, and the top of each
    rising run that a falling run follows is an angle.  ``deltas`` may be
    any iterable; only the extrema are stored.
    """
    t = 0
    leaves: list[int] = []
    angles: list[int] = []
    rising = None
    for rising, run in groupby(filter(None, deltas), (0).__lt__):
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


def _dedekind_sum_12k(h: int, k: int) -> int:
    """12 k s(h, k) for coprime 0 <= h < k, an integer (6 k s(h, k) is one).

    s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((h r/k)).  Reciprocity,
    s(h, k) + s(k, h) = (h/k + k/h + 1/(h k))/12 - 1/4, times 12 h k reads
    h D(h, k) + k D(k mod h, h) = h^2 + k^2 + 1 - 3 h k for D(h, k) =
    12 k s(h, k); it is solved back along Euclid's algorithm from
    D(0, 1) = 0.
    """
    euclid = []
    while h:
        euclid.append((h, k))
        h, k = k % h, h
    d = 0
    for h, k in reversed(euclid):
        d = (h * h + k * k + 1 - 3 * h * k - k * d) // h
    return d


def _k_squared_plus_s(b: BrieskornParams) -> int:
    """K^2 + s of the plumbing of Sigma(a1,a2,a3), from Dedekind sums.

    In K^2 + s = eps^2 e + e + 5 - 12 sum_i s(omega_i, a_i) (module
    docstring), e = -1/alpha and eps = -chi with chi = alpha - sum_i
    alpha/a_i, so alpha (K^2 + s) = 5 alpha - chi^2 - 1
    - sum_i (alpha/a_i) 12 a_i s(omega_i, a_i), all in ints.  A value that
    alpha does not divide raises AssertionError.
    """
    a = b.tuple
    alpha = a[0] * a[1] * a[2]
    _, omegas = seifert_invariants(b)
    chi = alpha - sum(alpha // ai for ai in a)
    num = 5 * alpha - chi * chi - 1 - sum(
        (alpha // ai) * _dedekind_sum_12k(w, ai) for ai, w in zip(a, omegas))
    q, r = divmod(num, alpha)
    if r:
        raise AssertionError(f"K^2 + s = {num}/{alpha} is not an integer")
    return q


def brieskorn_root(b: BrieskornParams) -> SymmetricRootProfile:
    """Graded-root profile of Sigma(a1,a2,a3), h-normalized gradings.

    Streams the half Delta(0..M-1), M = ceil(N0/2) with
    N0 = alpha - a1 a2 - a1 a3 - a2 a3, and one closing -1 step from the
    semigroup form into the extrema compression, and mirrors the extrema about
    tau(M): tau(m) = tau(N0 + 1 - m) and Delta >= 0 after N0 make up the
    stopping rule proved in the module docstring.  Gradings are ints,
    -2t + (K^2 + s)/4, with K^2 + s from Dedekind sums; K^2 + s not
    divisible by 8 raises AssertionError.
    """
    alpha = b.a1 * b.a2 * b.a3
    if alpha > MAX_SIGMA_ALPHA:
        raise SigmaSizeError(
            f"Sigma({b.a1},{b.a2},{b.a3}) has alpha = {alpha}, above the "
            f"limit MAX_SIGMA_ALPHA = {MAX_SIGMA_ALPHA}")
    n0 = alpha - b.a1 * b.a2 - b.a1 * b.a3 - b.a2 * b.a3
    leaves, angles = _compress_to_profile(
        chain(_semigroup_deltas(b, (n0 + 1) // 2), (-1,)))
    middle = leaves.pop() + 1
    if angles and angles[-1] == middle:  # the half ends on a rise
        leaf_taus = leaves + leaves[::-1]
        angle_taus = angles + angles[-2::-1]
    else:
        leaf_taus = leaves + [middle] + leaves[::-1]
        angle_taus = angles + angles[::-1]
    q = _k_squared_plus_s(b)
    if q % 8:
        raise AssertionError(f"K^2 + s = {q} is not divisible by 8; "
                             "not a homology sphere")
    offset = q // 4
    return SymmetricRootProfile(tuple([-2 * t + offset for t in leaf_taus]),
                                tuple([-2 * t + offset for t in angle_taus]))


def brieskorn_class(b: BrieskornParams) -> tuple[SymmetricRootProfile, LocalClass]:
    """(graded-root profile, local class) of a Brieskorn sphere."""
    profile = brieskorn_root(b)
    return profile, decompose(monotone_subroot(profile))
