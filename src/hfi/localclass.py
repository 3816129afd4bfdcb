"""The free-abelian group of local-equivalence classes in the Y-basis.

A class is a finite integer combination of the basis elements Y_i (i >= 1)
together with a rational grading shift Delta; addition is coefficientwise,
negation is dualization, and the derived invariants d, mu-bar, and the
Rokhlin invariant are group homomorphisms.  ``LocalClass`` has one
constructor, which puts any (index, coefficient) pairs in canonical form.

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


# The exact number types.  Checks match ``type(value)`` against them, so a
# subclass is refused: ``isinstance(True, int)`` holds, yet True is no
# grading, weight, index or coefficient.
EXACT = frozenset({int, Fraction})
Grading = int | Fraction


def rational(value) -> Fraction:
    """``Fraction(value)`` for an exact value or outside text; a float (not
    exact: ``Fraction(0.1)`` is not 1/10), a bool or a zero denominator is a
    ValueError."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"inexact value {value!r}: give an int, a Fraction "
                         "or a string such as '1/2'")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _exact(value) -> Grading:
    """``rational(value)``, as an int when it is integral, so that integral
    gradings and shifts stay in int arithmetic."""
    return q.numerator if (q := rational(value)).denominator == 1 else q


@dataclass(frozen=True)
class LocalClass:
    """sum c_i Y_i shifted by [Delta].  The constructor adds the coefficients
    of a repeated index, drops zeros, sorts by index and keeps an int shift;
    any other shift is read through ``rational`` and stored as an int when
    it is integral, so the shift, d and the correction terms of a class
    with an integral shift are ints.  An index that is not a positive int
    or a coefficient that is not an int (a bool is neither) raises
    ValueError."""

    coeffs: tuple[tuple[int, int], ...] = ()
    shift: Grading = 0

    def __post_init__(self):
        acc: dict[int, int] = {}
        for i, c in self.coeffs:
            if type(i) is not int or i <= 0:
                raise ValueError(f"basis index must be a positive integer, got {i}")
            if type(c) is not int:
                raise ValueError(f"coefficient of Y[{i}] must be an integer, got {c!r}")
            acc[i] = acc.get(i, 0) + c
        object.__setattr__(self, "coeffs",
                           tuple(sorted((i, c) for i, c in acc.items() if c)))
        if type(self.shift) is not int:
            object.__setattr__(self, "shift", _exact(self.shift))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.shift == 0

    def __add__(self, other: "LocalClass") -> "LocalClass":
        return LocalClass(self.coeffs + other.coeffs, self.shift + other.shift)

    def __neg__(self) -> "LocalClass":
        return LocalClass(tuple((i, -c) for i, c in self.coeffs), -self.shift)

    def __sub__(self, other: "LocalClass") -> "LocalClass":
        return self + (-other)

    def __rmul__(self, k: int) -> "LocalClass":
        if type(k) is not int:  # a bool is not an int
            return NotImplemented
        return LocalClass(tuple((i, k * c) for i, c in self.coeffs), k * self.shift)

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            body = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*Y[{i}]"
                            for i, c in self.coeffs)
        return f"({body})[Δ={self.shift}]"

    def to_json(self) -> dict:
        return {"coeffs": {str(i): c for i, c in self.coeffs},
                "shift": str(self.shift)}

    @staticmethod
    def from_json(obj) -> "LocalClass":
        """The class that ``to_json`` wrote, from the dict or its JSON text;
        a missing "coeffs" or "shift" key raises ValueError naming it."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        for key in ("coeffs", "shift"):
            if key not in obj:
                raise ValueError(f"a local class in JSON needs the key {key!r}")
        return LocalClass(tuple((int(i), c) for i, c in obj["coeffs"].items()),
                          obj["shift"])


def zero() -> LocalClass:
    return LocalClass()


def Y(i: int) -> LocalClass:
    return LocalClass(((i, 1),))


def I(delta) -> LocalClass:
    """Shifted trivial class: a single tower starting in grading -delta."""
    return LocalClass((), delta)


def d_invariant(a: LocalClass) -> Grading:
    return 2 * sum(i * c for i, c in a.coeffs) - a.shift


def mu_bar(a: LocalClass) -> Fraction:
    return Fraction(a.shift, 2)


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
    minus = _alternation_reasons(tuple((i, -c) for i, c in a.coeffs))
    if not minus:
        return RealizabilityVerdict(True, "-", ())
    return RealizabilityVerdict(False, None, tuple(plus))


@dataclass(frozen=True)
class SphericalParams:
    """Parameters (d; Delta_1 >= ... >= Delta_n) of a spherical complex."""

    d: Grading
    deltas: tuple[int, ...]

    def __post_init__(self):
        for k, dd in enumerate(self.deltas):
            if type(dd) is not int or dd < 0 or dd % 2:
                raise ValueError(f"deltas must be non-negative even integers, got {dd!r}")
            if k and self.deltas[k - 1] < dd:
                raise ValueError("deltas must be weakly decreasing")

    @property
    def n(self) -> int:
        return len(self.deltas)


def spherical_params(a: LocalClass) -> SphericalParams:
    """Spherical parameters of a class with non-negative coefficients."""
    if any(c < 0 for _, c in a.coeffs):
        raise ValueError("spherical parameters require a non-negative class")
    deltas = []
    for i, c in reversed(a.coeffs):
        deltas.extend([2 * i] * c)
    return SphericalParams(d_invariant(a), tuple(deltas))
