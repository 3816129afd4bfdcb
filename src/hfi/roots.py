"""Symmetric graded roots stored as leaf/angle grading profiles.

A profile records the gradings gr(v_1)..gr(v_n) of the leaves and
gr(alpha_1)..gr(alpha_{n-1}) of the angles between consecutive leaves, in
left-to-right order.  The infinite stem below the final merge carries no
generators beyond U-powers, so only the finite top part is stored.  The
constructor of ``SymmetricRootProfile`` refuses a profile that is not a
symmetric graded root.

The standard complex of a symmetric profile has one generator per leaf (at
the leaf grading) and one per angle (at gr(alpha)+1), with
d(alpha_i) = U^{(gr(v_i)-gr(alpha_i))/2} v_i + U^{(gr(v_{i+1})-gr(alpha_i))/2} v_{i+1}
and the reflection involution J_0.  Gradings keep the exact type they are
given in, int or ``Fraction`` (the convention of ``hfi.complexes``).

Root-profile files hold HF-minus gradings, 2 below the h-normalized ones
that ``hfi`` computes with and reports: ``profile_to_text`` writes each
grading minus 2 and ``profile_from_text`` adds 2 back.  This module is the
only one that applies that shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import le, mod, sub
from typing import TYPE_CHECKING

from .localclass import EXACT, Grading, rational

if TYPE_CHECKING:
    from .complexes import IotaComplex


@dataclass(frozen=True)
class SymmetricRootProfile:
    """Leaf and angle gradings of a symmetric graded root.  The constructor
    stores both as tuples and raises ValueError unless one angle sits between
    each two consecutive leaves, every grading is an int or a ``Fraction``
    (not a bool), both are reflection-symmetric, no angle lies above an
    adjacent leaf and all gradings lie in gr(v_1) + 2Z (so each merge
    exponent is a non-negative integer); by symmetry the last two checks
    read the left half and the centre only.  The exactness check reads
    every grading, because the symmetry check compares with ==, and
    2.0 == 2."""

    leaves: tuple[Grading, ...]
    angles: tuple[Grading, ...]

    def __post_init__(self):
        leaves, angles = tuple(self.leaves), tuple(self.angles)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "angles", angles)
        n = len(leaves)
        if n < 1:
            raise ValueError("a profile needs at least one leaf")
        if len(angles) != n - 1:
            raise ValueError("need exactly one angle between consecutive leaves")
        if not EXACT.issuperset(map(type, leaves + angles)):
            g = next(g for g in leaves + angles if type(g) not in EXACT)
            raise ValueError(f"grading {g!r} is not an int or a Fraction: "
                             "gradings are exact")
        if leaves != leaves[::-1]:
            raise ValueError("leaf gradings are not reflection-symmetric")
        if angles != angles[::-1]:
            raise ValueError("angle gradings are not reflection-symmetric")
        # angle i lies between leaves i and i + 1; for the central angle of
        # an even profile the leaf on the right mirrors the one on the left
        left, inner = leaves[:(n + 1) // 2], angles[:n // 2]
        if not (all(map(le, inner, left)) and all(map(le, inner, left[1:]))):
            i = next(i for i, a in enumerate(inner)
                     if a > min(leaves[i], leaves[i + 1]))
            raise ValueError(f"invalid profile: angles below adjacent leaves: angle "
                             f"{i + 1} at {inner[i]} exceeds an adjacent leaf")
        base, half = leaves[0], left + inner
        if any(map(mod, map(sub, half, repeat(base)), repeat(2))):
            g = next(g for g in half if (g - base) % 2)
            raise ValueError(f"invalid profile: single coset of 2Z: "
                             f"grading {g} not in {base} + 2Z")

    @property
    def n(self) -> int:
        return len(self.leaves)


def standard_complex(p: SymmetricRootProfile) -> IotaComplex:
    """The standard iota-complex of a symmetric profile (involution J_0).

    It passes every ``validate`` check by construction and keeps
    ``complexes._BUILT`` as its checks (``hfi.complexes``, "The
    involution"); a ``p`` that is not a ``SymmetricRootProfile`` raises
    TypeError."""
    from . import complexes

    if not isinstance(p, SymmetricRootProfile):
        raise TypeError(f"not a SymmetricRootProfile: {p!r}")
    n = p.n
    labels = [f"v{i + 1}" for i in range(n)] + [f"a{i + 1}" for i in range(n - 1)]
    gradings = list(p.leaves) + [a + 1 for a in p.angles]
    # bit columns (see complexes.Map): leaves are cycles, d(a_i) hits v_i and v_{i+1}
    diff = [0] * n + [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
    # J_0 reflects the leaves and the angles
    iota = ([1 << (n - 1 - i) for i in range(n)]
            + [1 << (2 * n - 2 - i) for i in range(n - 1)])
    return complexes._built(complexes.graded_complex(labels, gradings, diff, iota,
                                                     p.leaves[0]))


# ---------------------------------------------------------------------------
# profile text format


def profile_to_text(p: SymmetricRootProfile) -> str:
    """Root-profile file text of ``p``, in HF-minus gradings (each 2 lower)."""
    lines = [f"coset: {p.leaves[0] % 2}",
             " ".join(["leaves:", *(str(g - 2) for g in p.leaves)]),
             " ".join(["angles:", *(str(g - 2) for g in p.angles)])]
    return "\n".join(lines) + "\n"


def profile_from_text(text: str) -> SymmetricRootProfile:
    """Read root-profile file text, in HF-minus gradings, shifted up 2.

    The profile is checked in the file's own gradings, so every refusal
    names what the file says.  Each key is read once: a repeated line, or a
    coset line without exactly one grading, is refused.
    """
    fields: dict[str, list[Fraction]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        vals = [rational(tok) for tok in rest.split()]
        key = key.strip().lower()
        if key not in ("coset", "leaves", "angles"):
            raise ValueError(f"unrecognized profile line: {raw!r}")
        if key in fields:
            raise ValueError(f"repeated {key} line: {raw!r}")
        if key == "coset" and len(vals) != 1:
            raise ValueError(f"a coset line holds exactly one grading: {raw!r}")
        fields[key] = vals
    if not fields.get("leaves"):
        raise ValueError("profile file has no leaves line")
    p = SymmetricRootProfile(tuple(fields["leaves"]), tuple(fields.get("angles", ())))
    coset = fields.get("coset")
    if coset and (p.leaves[0] - coset[0]) % 2 != 0:
        raise ValueError(f"declared coset {coset[0]} inconsistent with leaf gradings")
    return SymmetricRootProfile(tuple(g + 2 for g in p.leaves),
                                tuple(g + 2 for g in p.angles))
