"""Symmetric graded roots stored as leaf/angle grading profiles.

A profile records the gradings gr(v_1)..gr(v_n) of the leaves and
gr(alpha_1)..gr(alpha_{n-1}) of the angles between consecutive leaves, in
left-to-right order.  The infinite stem below the final merge carries no
generators beyond U-powers, so only the finite top part is stored.

The standard complex of a symmetric profile has one generator per leaf (at
the leaf grading) and one per angle (at gr(alpha)+1), with
d(alpha_i) = U^{(gr(v_i)-gr(alpha_i))/2} v_i + U^{(gr(v_{i+1})-gr(alpha_i))/2} v_{i+1}
and the reflection involution J_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Diagnostics, IotaComplex, iota_complex


@dataclass(frozen=True)
class RootProfile:
    leaves: tuple[Fraction, ...]
    angles: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(Fraction(g) for g in self.leaves))
        object.__setattr__(self, "angles", tuple(Fraction(g) for g in self.angles))
        if len(self.leaves) < 1:
            raise ValueError("a profile needs at least one leaf")
        if len(self.angles) != len(self.leaves) - 1:
            raise ValueError("need exactly one angle between consecutive leaves")

    @property
    def n(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class SymmetricRootProfile(RootProfile):
    def __post_init__(self):
        super().__post_init__()
        if self.leaves != tuple(reversed(self.leaves)):
            raise ValueError("leaf gradings are not reflection-symmetric")
        if self.angles != tuple(reversed(self.angles)):
            raise ValueError("angle gradings are not reflection-symmetric")


def validate_profile(p: RootProfile) -> Diagnostics:
    """Check the profile invariants and the graded-root axioms on the top part."""
    checks = []
    bad = [(i, a) for i, a in enumerate(p.angles)
           if a > min(p.leaves[i], p.leaves[i + 1])]
    checks.append(("angles below adjacent leaves", not bad,
                   "ok" if not bad else f"angle {bad[0][0] + 1} at {bad[0][1]} "
                   f"exceeds an adjacent leaf"))
    base = p.leaves[0]
    off = [g for g in p.leaves + p.angles if ((g - base) / 2).denominator != 1]
    checks.append(("single coset of 2Z", not off,
                   "ok" if not off else f"grading {off[0]} not in {base} + 2Z"))
    if not off:
        # every merge exponent (gr(v) - gr(alpha))/2 is a non-negative integer
        exps_ok = all((p.leaves[i] - p.angles[i]) % 2 == 0
                      and (p.leaves[i + 1] - p.angles[i]) % 2 == 0
                      for i in range(len(p.angles)))
        checks.append(("integral U-exponents", exps_ok, "ok" if exps_ok else
                       "leaf/angle difference not an even integer"))
    if isinstance(p, SymmetricRootProfile):
        # distinct J-invariant vertices are nested central intervals at distinct
        # gradings, so uniqueness per grading is automatic in this encoding;
        # record the check for the axiom list.
        checks.append(("one J-invariant vertex per grading", True,
                       "automatic for interval-encoded symmetric profiles"))
    try:
        reconstruct_tree(p)
        checks.append(("tree reconstruction", True, "ok"))
    except ValueError as e:
        checks.append(("tree reconstruction", False, str(e)))
    return Diagnostics(tuple(checks))


@dataclass(frozen=True)
class TreeVertex:
    grading: Fraction
    span: tuple[int, int]  # 1-indexed inclusive leaf interval


def reconstruct_tree(p: RootProfile) -> list[TreeVertex]:
    """Finite vertex set of the root above (and including) the merge of all leaves.

    A vertex at grading g covering leaves i..j corresponds to a maximal leaf
    interval whose intervening angles all have grading >= g.  Leaves appear as
    singleton spans; the last vertex (full span at the minimum angle grading)
    sits on top of the infinite stem.
    """
    verts = [TreeVertex(p.leaves[i], (i + 1, i + 1)) for i in range(p.n)]
    for k, g in enumerate(p.angles):
        i = k
        while i > 0 and p.angles[i - 1] >= g:
            i -= 1
        j = k + 1
        while j < len(p.angles) and p.angles[j] >= g:
            j += 1
        v = TreeVertex(g, (i + 1, j + 1))
        if v not in verts:
            verts.append(v)
    return sorted(verts, key=lambda v: (-v.grading, v.span))


def merge_grading(p: RootProfile, i: int, j: int) -> Fraction:
    """Grading where leaves i and j (1-indexed) merge: min intervening angle."""
    if not (1 <= i <= j <= p.n):
        raise IndexError("leaf indices out of range")
    if i == j:
        return p.leaves[i - 1]
    return min(p.angles[i - 1:j - 1])


def mirror_merge(p: SymmetricRootProfile, i: int) -> Fraction:
    """Grading of the first J-invariant vertex on the path from leaf i.

    For a leaf in the left half this is min over the mirror-spanning angles
    i..n-i; the central leaf of an odd profile is itself J-invariant.
    """
    n = p.n
    if not (1 <= i <= (n + 1) // 2):
        raise IndexError(f"leaf index {i} not in the left half (1..{(n + 1) // 2})")
    if 2 * i == n + 1:
        return p.leaves[i - 1]
    return min(p.angles[i - 1:n - i])


def standard_complex(p: SymmetricRootProfile) -> IotaComplex:
    """The standard iota-complex of a symmetric profile (involution J_0)."""
    diag = validate_profile(p)
    if not diag.ok:
        raise ValueError("invalid profile:\n" + str(diag))
    n = p.n
    labels = [f"v{i + 1}" for i in range(n)] + [f"a{i + 1}" for i in range(n - 1)]
    gradings = list(p.leaves) + [a + 1 for a in p.angles]
    # columns (see complexes.Map): leaves are cycles, d(a_i) hits v_i and v_{i+1}
    diff = [frozenset()] * n + [
        frozenset({(i, int((p.leaves[i] - p.angles[i]) / 2)),
                   (i + 1, int((p.leaves[i + 1] - p.angles[i]) / 2))})
        for i in range(n - 1)]
    # J_0 reflects the leaves and the angles
    iota = ([frozenset({(n - 1 - i, 0)}) for i in range(n)]
            + [frozenset({(2 * n - 2 - i, 0)}) for i in range(n - 1)])
    return iota_complex(labels, gradings, diff, iota, tau=p.leaves[0])


# ---------------------------------------------------------------------------
# profile text format


def profile_to_text(p: RootProfile, coset: Fraction | None = None) -> str:
    def fmt(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    lines = []
    if coset is None:
        coset = p.leaves[0] % 2
    lines.append(f"coset: {fmt(coset)}")
    lines.append("leaves: " + " ".join(fmt(g) for g in p.leaves))
    if p.angles:
        lines.append("angles: " + " ".join(fmt(g) for g in p.angles))
    else:
        lines.append("angles:")
    return "\n".join(lines) + "\n"


def profile_from_text(text: str, symmetric: bool = True) -> RootProfile:
    coset = None
    leaves: list[Fraction] | None = None
    angles: list[Fraction] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        vals = [Fraction(tok) for tok in rest.split()]
        key = key.strip().lower()
        if key == "coset":
            coset = vals[0] if vals else None
        elif key == "leaves":
            leaves = vals
        elif key == "angles":
            angles = vals
        else:
            raise ValueError(f"unrecognized profile line: {raw!r}")
    if not leaves:
        raise ValueError("profile file has no leaves line")
    cls = SymmetricRootProfile if symmetric else RootProfile
    p = cls(tuple(leaves), tuple(angles))
    if coset is not None and (p.leaves[0] - coset) % 2 != 0:
        raise ValueError(f"declared coset {coset} inconsistent with leaf gradings")
    return p
