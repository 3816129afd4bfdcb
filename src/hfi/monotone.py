"""Monotone and weakly monotone roots: the canonical local-equivalence forms.

A monotone root M(h_1, r_1; ...; h_n, r_n) has strictly decreasing leaf
gradings h_i, strictly increasing angle gradings r_i, and h_n >= r_n; the
weakly monotone variant allows equalities.  Each such root determines a
symmetric profile, and every symmetric profile reduces to a monotone subroot
that is locally equivalent to it.

Both kinds have one checked constructor, whose orders ``MonotoneRoot`` makes
strict; it also refuses a parameter that is not an int or ``Fraction``
(a bool is neither).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Grading
from .localclass import EXACT, LocalClass
from .roots import SymmetricRootProfile

Params = tuple[tuple[Grading, Grading], ...]


@dataclass(frozen=True)
class WeaklyMonotoneRoot:
    params: Params
    _strict = False  # a class attribute, not a field

    def __post_init__(self):
        params = tuple((h, r) for h, r in self.params)
        if not params:
            raise ValueError("a root needs at least one (h, r) pair")
        for g in (x for pair in params for x in pair):
            if type(g) not in EXACT:
                raise ValueError(f"parameter {g!r} is not an int or a Fraction: "
                                 "parameters are exact")
            if (g - params[0][0]) % 2 != 0:
                raise ValueError("all parameters must lie in one coset of 2Z")
        object.__setattr__(self, "params", params)
        hs, rs = zip(*params)
        if any(a < b for a, b in zip(hs, hs[1:])):
            raise ValueError("h parameters must be weakly decreasing")
        if any(a > b for a, b in zip(rs, rs[1:])):
            raise ValueError("r parameters must be weakly increasing")
        if hs[-1] < rs[-1]:
            raise ValueError("need h_n >= r_n")
        if self._strict and len(set(hs)) < len(hs):
            raise ValueError("h parameters must be strictly decreasing")
        if self._strict and len(set(rs)) < len(rs):
            raise ValueError("r parameters must be strictly increasing")

    @property
    def type(self) -> int:
        return len(self.params)

    def __str__(self) -> str:
        inner = "; ".join(f"{h},{r}" for h, r in self.params)
        return f"M({inner})"


@dataclass(frozen=True)
class MonotoneRoot(WeaklyMonotoneRoot):
    _strict = True


def M(*pairs) -> MonotoneRoot:
    """Convenience constructor: M((4,0),(2,2)) or M(4,0, 2,2)."""
    if pairs and not isinstance(pairs[0], tuple):
        if len(pairs) % 2:
            raise ValueError("need an even number of scalars")
        pairs = tuple((pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2))
    return MonotoneRoot(tuple(pairs))


def delta_tilde(m: MonotoneRoot) -> Grading:
    """h_1 - r_1 of a type-one (projective) root."""
    if m.type != 1:
        raise ValueError(f"delta-tilde is defined for type-one roots, got type {m.type}")
    return m.params[0][0] - m.params[0][1]


def to_profile(m: WeaklyMonotoneRoot) -> SymmetricRootProfile:
    """Symmetric profile of a (weakly) monotone root.

    Leaves (h_1..h_n, h_n..h_1) and angles (r_1..r_n, r_{n-1}..r_1); when
    h_n = r_n the two central leaves merge at their own grading and are
    collapsed into a single J-invariant leaf, dropping the central angle.
    """
    hs = [h for h, _ in m.params]
    rs = [r for _, r in m.params]
    if hs[-1] == rs[-1]:
        leaves = hs + hs[-2::-1]
        angles = rs[:-1] + rs[-2::-1]
    else:
        leaves = hs + hs[::-1]
        angles = rs + rs[-2::-1]
    return SymmetricRootProfile(tuple(leaves), tuple(angles))


def monotone_subroot(p: SymmetricRootProfile) -> MonotoneRoot:
    """Extract the monotone subroot of a symmetric profile.

    Rule: over the left-half leaf indices i, form the pairs
    (h, c) = (leaf grading, mirror-merge grading) and keep the Pareto frontier
    (componentwise-maximal elements), sorted by h descending.  The rule is
    validated three ways in the test suite: round-trip identity on monotone
    input, oracle local equivalence on random profiles, and the Brieskorn
    anchors; on any conflict the oracle wins.

    The mirror-merge grading of leaf i is the minimum of the angles i..n-i,
    so one running minimum outward from the centre gives all of them (the
    central leaf of an odd profile is its own mirror image).  After one sort
    by (-h, -c), a pair is on the frontier iff its c exceeds every c before it.
    """
    n = p.n
    pairs = [(p.leaves[n // 2], p.leaves[n // 2])] if n % 2 else []
    c = None
    for i in reversed(range(n // 2)):
        c = p.angles[i] if c is None else min(c, p.angles[i])
        pairs.append((p.leaves[i], c))
    pairs.sort(key=lambda hc: (-hc[0], -hc[1]))
    frontier = []
    for h, c in pairs:
        if not frontier or c > frontier[-1][1]:
            frontier.append((h, c))
    return MonotoneRoot(tuple(frontier))


def simplify_weak(w: WeaklyMonotoneRoot) -> MonotoneRoot:
    """The monotone root locally equivalent to a weakly monotone one: the
    monotone subroot of its profile, whose Pareto frontier drops each pair
    that an equal h or r makes redundant."""
    return monotone_subroot(to_profile(w))


def swap(x: WeaklyMonotoneRoot, y: WeaklyMonotoneRoot,
         a: int, b: int) -> tuple[WeaklyMonotoneRoot, WeaklyMonotoneRoot] | None:
    """Exchange the tails of x after index a and of y after index b.

    With Delta = s_a - t_b, the swapped pair is
    x' = (p_1,s_1; ..; p_a,s_a; q_{b+1}+Delta, t_{b+1}+Delta; ..) and
    y' = (q_1,t_1; ..; q_b,t_b; p_{a+1}-Delta, s_{a+1}-Delta; ..).
    Returns None when the validity inequality (p_a >= q_{b+1} + Delta and
    q_b >= p_{a+1} - Delta) fails; invalid indices raise instead.
    """
    if not (1 <= a <= x.type):
        raise IndexError(f"index a={a} out of range 1..{x.type}")
    if not (1 <= b <= y.type):
        raise IndexError(f"index b={b} out of range 1..{y.type}")
    ps = x.params
    qs = y.params
    delta = ps[a - 1][1] - qs[b - 1][1]
    x_tail = tuple((q + delta, t + delta) for q, t in qs[b:])
    y_tail = tuple((p - delta, s - delta) for p, s in ps[a:])
    if x_tail and ps[a - 1][0] < x_tail[0][0]:
        return None
    if y_tail and qs[b - 1][0] < y_tail[0][0]:
        return None
    return (WeaklyMonotoneRoot(ps[:a] + x_tail),
            WeaklyMonotoneRoot(qs[:b] + y_tail))


def decompose(m: MonotoneRoot) -> LocalClass:
    """Basis decomposition of a monotone root.

    Coefficient +1 at index (h_i - r_i)/2 for each i and -1 at
    (h_{i+1} - r_i)/2 for each i < n; index 0 is the trivial summand and is
    dropped.  The grading shift is -r_n (so mu-bar = -r_n/2 and the
    d-invariant of the class is h_1).
    """
    hs = [h for h, _ in m.params]
    rs = [r for _, r in m.params]
    terms = ([((h - r) // 2, 1) for h, r in zip(hs, rs)]
             + [((h - r) // 2, -1) for h, r in zip(hs[1:], rs)])
    return LocalClass([t for t in terms if t[0]], -rs[-1])
