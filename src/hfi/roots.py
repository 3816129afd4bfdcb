"""Symmetric graded roots stored as leaf/angle grading profiles.

A profile records the gradings gr(v_1)..gr(v_n) of the leaves and
gr(alpha_1)..gr(alpha_{n-1}) of the angles between consecutive leaves, in
left-to-right order.  The infinite stem below the final merge carries no
generators beyond U-powers, so only the finite top part is stored.

The standard complex of a symmetric profile has one generator per leaf (at
the leaf grading) and one per angle (at gr(alpha)+1), with
d(alpha_i) = U^{(gr(v_i)-gr(alpha_i))/2} v_i + U^{(gr(v_{i+1})-gr(alpha_i))/2} v_{i+1}
and the reflection involution J_0.  Gradings keep the exact type they are
given in, int or ``Fraction`` (the convention of ``hfi.complexes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Diagnostics, Grading, IotaComplex, graded_complex
from .localclass import rational


@dataclass(frozen=True)
class RootProfile:
    leaves: tuple[Grading, ...]
    angles: tuple[Grading, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "angles", tuple(self.angles))
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
    """Check that no angle lies above an adjacent leaf and that all gradings
    lie in one coset of 2Z; together these make every merge exponent
    (gr(v) - gr(alpha))/2 a non-negative integer."""
    checks = []
    bad = [(i, a) for i, a in enumerate(p.angles)
           if a > min(p.leaves[i], p.leaves[i + 1])]
    checks.append(("angles below adjacent leaves", not bad,
                   "ok" if not bad else f"angle {bad[0][0] + 1} at {bad[0][1]} "
                   f"exceeds an adjacent leaf"))
    base = p.leaves[0]
    off = [g for g in p.leaves + p.angles if (g - base) % 2]
    checks.append(("single coset of 2Z", not off,
                   "ok" if not off else f"grading {off[0]} not in {base} + 2Z"))
    return Diagnostics(tuple(checks))


def standard_complex(p: SymmetricRootProfile) -> IotaComplex:
    """The standard iota-complex of a symmetric profile (involution J_0)."""
    diag = validate_profile(p)
    if not diag.ok:
        raise ValueError("invalid profile:\n" + str(diag))
    n = p.n
    labels = [f"v{i + 1}" for i in range(n)] + [f"a{i + 1}" for i in range(n - 1)]
    gradings = list(p.leaves) + [a + 1 for a in p.angles]
    # bit columns (see complexes.Map): leaves are cycles, d(a_i) hits v_i and v_{i+1}
    diff = [0] * n + [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
    # J_0 reflects the leaves and the angles
    iota = ([1 << (n - 1 - i) for i in range(n)]
            + [1 << (2 * n - 2 - i) for i in range(n - 1)])
    return graded_complex(labels, gradings, diff, iota, p.leaves[0])


# ---------------------------------------------------------------------------
# profile text format


def profile_to_text(p: RootProfile) -> str:
    lines = [f"coset: {p.leaves[0] % 2}",
             " ".join(["leaves:", *map(str, p.leaves)]),
             " ".join(["angles:", *map(str, p.angles)])]
    return "\n".join(lines) + "\n"


def profile_from_text(text: str) -> SymmetricRootProfile:
    coset = None
    leaves: list[Fraction] | None = None
    angles: list[Fraction] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        vals = [rational(tok) for tok in rest.split()]
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
    p = SymmetricRootProfile(tuple(leaves), tuple(angles))
    if coset is not None and (p.leaves[0] - coset) % 2 != 0:
        raise ValueError(f"declared coset {coset} inconsistent with leaf gradings")
    failed = validate_profile(p).failed()
    if failed:
        raise ValueError("invalid profile: " + "; ".join(map(": ".join, failed)))
    return p
