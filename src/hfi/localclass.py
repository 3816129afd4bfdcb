"""The free-abelian group of local-equivalence classes in the Y-basis.

A class is a finite integer combination of the basis elements Y_i (i >= 1)
together with a rational grading shift Delta; addition is coefficientwise,
negation is dualization, and the derived invariants d, mu-bar, and the
Rokhlin invariant are group homomorphisms.

Shift convention: [Delta] means tensoring with a single tower starting in
grading -Delta, so the class with zero coefficients and shift Delta has
d = -Delta, and in general d = 2*sum(i c_i) - Delta.  This convention is
locked by two anchors in the test suite: the class (Y2 - Y1)[-2] must have
d = 4, and the shifted trivial class I_2 must have d = -2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class LocalClass:
    coeffs: tuple[tuple[int, int], ...]  # sorted (index, coefficient), coefficient != 0
    shift: Fraction

    @staticmethod
    def make(coeffs: dict[int, int] | None = None, shift=0) -> "LocalClass":
        coeffs = coeffs or {}
        items = []
        for i, c in sorted(coeffs.items()):
            if not isinstance(i, int) or i <= 0:
                raise ValueError(f"basis index must be a positive integer, got {i}")
            if c:
                items.append((i, int(c)))
        return LocalClass(tuple(items), Fraction(shift))

    def coeff(self, i: int) -> int:
        return dict(self.coeffs).get(i, 0)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.shift == 0

    def __add__(self, other: "LocalClass") -> "LocalClass":
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, 0) + c
        return LocalClass.make(acc, self.shift + other.shift)

    def __neg__(self) -> "LocalClass":
        return LocalClass(tuple((i, -c) for i, c in self.coeffs), -self.shift)

    def __sub__(self, other: "LocalClass") -> "LocalClass":
        return self + (-other)

    def __rmul__(self, k: int) -> "LocalClass":
        if not isinstance(k, int):
            return NotImplemented
        return LocalClass.make({i: k * c for i, c in self.coeffs}, k * self.shift)

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            body = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*Y[{i}]"
                            for i, c in self.coeffs)
        return f"({body})[Δ={_fmt(self.shift)}]"

    def to_json(self) -> dict:
        return {"coeffs": {str(i): c for i, c in self.coeffs},
                "shift": _fmt(self.shift)}

    @staticmethod
    def from_json(obj) -> "LocalClass":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return LocalClass.make({int(i): int(c) for i, c in obj["coeffs"].items()},
                               Fraction(obj["shift"]))


def zero() -> LocalClass:
    return LocalClass.make()


def Y(i: int) -> LocalClass:
    return LocalClass.make({i: 1})


def I(delta) -> LocalClass:
    """Shifted trivial class: a single tower starting in grading -delta."""
    return LocalClass.make({}, shift=delta)


def neg(a: LocalClass) -> LocalClass:
    return -a


def d_invariant(a: LocalClass) -> Fraction:
    return 2 * sum(i * c for i, c in a.coeffs) - a.shift


def mu_bar(a: LocalClass) -> Fraction:
    return a.shift / 2


def rokhlin(a: LocalClass) -> int:
    """mu-bar mod 2; defined when the class has an even integer shift."""
    m = mu_bar(a)
    if m.denominator != 1:
        raise ValueError(f"mu-bar = {m} is not an integer; "
                         "not an integer homology sphere class")
    return int(m) % 2


def infinite_order_verdict(a: LocalClass) -> str:
    if a.is_zero:
        return "locally trivial (no obstruction from this theory)"
    return "infinite order"


@dataclass(frozen=True)
class RealizabilityVerdict:
    ok: bool
    orientation: str | None  # "+", "-", or None
    reasons: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return f"realizable-necessary-conditions pass (orientation {self.orientation})"
        return "fails: " + "; ".join(self.reasons)


def _alternation_reasons(coeffs: tuple[tuple[int, int], ...]) -> list[str]:
    reasons = []
    if any(abs(c) > 1 for _, c in coeffs):
        reasons.append("a coefficient has absolute value > 1")
    signs = [c for _, c in coeffs]
    if any(signs[k] == signs[k + 1] for k in range(len(signs) - 1)):
        reasons.append("consecutive nonzero coefficients do not alternate in sign")
    if signs and signs[-1] != 1:
        reasons.append("the last nonzero coefficient is not +1")
    return reasons


def realizability_check(a: LocalClass) -> RealizabilityVerdict:
    """Necessary conditions for a class to come from a single manifold.

    Checks, for either orientation: coefficients in {-1, 0, 1}, alternating
    in sign with increasing index, last nonzero coefficient +1.  This is not
    a sufficiency claim.
    """
    if not a.coeffs:
        return RealizabilityVerdict(True, "+", ())
    plus = _alternation_reasons(a.coeffs)
    if not plus:
        return RealizabilityVerdict(True, "+", ())
    minus = _alternation_reasons((-a).coeffs)
    if not minus:
        return RealizabilityVerdict(True, "-", ())
    return RealizabilityVerdict(False, None, tuple(plus))


@dataclass(frozen=True)
class SphericalParams:
    """Parameters (d; Delta_1 >= ... >= Delta_n) of a spherical complex."""

    d: Fraction
    deltas: tuple[int, ...]

    def __post_init__(self):
        if any(self.deltas[i] < self.deltas[i + 1] for i in range(len(self.deltas) - 1)):
            raise ValueError("deltas must be weakly decreasing")
        if any(dd < 0 or dd % 2 for dd in self.deltas):
            raise ValueError("deltas must be non-negative even integers")

    @property
    def n(self) -> int:
        return len(self.deltas)


def spherical_params(a: LocalClass) -> SphericalParams:
    """Spherical parameters of a class with non-negative coefficients."""
    if any(c < 0 for _, c in a.coeffs):
        raise ValueError("spherical parameters require a non-negative class")
    deltas = []
    for i, c in a.coeffs:
        deltas.extend([2 * i] * c)
    deltas.sort(reverse=True)
    return SphericalParams(d_invariant(a), tuple(deltas))
