"""Evaluation of class expressions into invariant reports.

Each parsed term is converted to a local-equivalence class in the Y-basis;
the report carries the per-term classes, their signed total, the invariants
d, d-bar, d-under, mu-bar, and the Rokhlin invariant, plus the order and
realizability verdicts.  With the oracle enabled, the total class is also
realized as an explicit tensor iota-complex (one standard complex per basis
summand, dualized for negative coefficients) whose correction terms are
computed independently and must agree with the closed-form engine's, which
``evaluate`` computes once for the report and hands to ``oracle_check``.

The oracle is capped at MAX_ORACLE_GENERATORS generators; past the cap,
OracleSizeError is raised before the complex is built.  Its correction
terms come from one exact elimination over GF(2) of the complex and one of
its mapping cone (``complexes.correction_terms``), with no truncated model,
so the cost follows the generator count and not the gradings' spread:
``Y(100000)`` and ``Y(1000000000) - Y(1) + I[-2]`` each took under
0.5 ms, ``5*Y(1) - Y(2) + I[-2]`` (729 generators) 4.1 ms and ``7*Y(1)``
(2187 generators, the largest under the cap) 16.5 ms (``evaluate_text``
with the oracle, best of 25 in CPU time, CPython 3.11 on one core of a
shared x86-64 server, where single runs read up to 1.6 times as long;
building the class complex with the growing product on the left of each
tensor step took 5.4 and 20.4 ms).
The standard complex of each (i, sign) factor is built once and kept by
``_factor``: the last _KEPT_FACTORS (256) pairs used, about 700 B each
under tracemalloc, about 180 KB in all.  Each class complex is a new
``tensor`` product, never a kept factor.
The cap is read at call time.  An ``@file`` atom is a root-profile file
in HF-minus gradings; ``hfi.roots`` applies the shift to internal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from . import cterms, localclass
from .brieskorn import BrieskornParams, brieskorn_class
from .expr import (Atom, ExpressionAST, FileAtom, IAtom, MAtom, SigmaAtom,
                   YAtom)
from .localclass import (LocalClass, infinite_order_verdict, mu_bar,
                         realizability_check, rokhlin)
from .monotone import MonotoneRoot, decompose, monotone_subroot, to_profile
from .roots import profile_from_text, standard_complex

if TYPE_CHECKING:
    from .complexes import IotaComplex

MAX_ORACLE_GENERATORS = 4096
_KEPT_FACTORS = 256  # the (i, sign) factors ``_factor`` keeps


class OracleMismatchError(AssertionError):
    """The independent complex-level computation disagrees with the engine."""


class OracleSizeError(ValueError):
    """The oracle tensor complex would exceed the generator limit."""


def atom_to_class(atom: Atom) -> LocalClass:
    if isinstance(atom, SigmaAtom):
        _, cls = brieskorn_class(BrieskornParams(atom.a1, atom.a2, atom.a3))
        return cls
    if isinstance(atom, YAtom):
        return localclass.Y(atom.i)
    if isinstance(atom, MAtom):
        return decompose(MonotoneRoot(atom.pairs))
    if isinstance(atom, IAtom):
        return localclass.I(atom.delta)
    if isinstance(atom, FileAtom):
        profile = profile_from_text(Path(atom.path).read_text())
        return decompose(monotone_subroot(profile))
    raise TypeError(f"unknown atom {atom!r}")


@dataclass(frozen=True)
class Report:
    input_text: str
    terms: tuple[tuple[int, str, LocalClass], ...]  # (weight, atom text, class)
    total: LocalClass
    d: Fraction
    d_bar: Fraction
    d_under: Fraction
    mu_bar: Fraction
    rokhlin: int | None
    order_verdict: str
    realizability: str
    oracle: str | None  # None (not requested) or "agrees"

    def to_json(self) -> dict:
        def frac(x):
            return str(x)

        return {
            "input": self.input_text,
            "terms": [{"weight": w, "atom": a, "class": c.to_json()}
                      for w, a, c in self.terms],
            "total": self.total.to_json(),
            "d": frac(self.d),
            "d_bar": frac(self.d_bar),
            "d_under": frac(self.d_under),
            "mu_bar": frac(self.mu_bar),
            "rokhlin": self.rokhlin,
            "order": self.order_verdict,
            "realizability": self.realizability,
            "oracle": self.oracle,
        }

    def to_text(self) -> str:
        lines = [f"input:      {self.input_text}"]
        for w, a, c in self.terms:
            lines.append(f"  term:     {w:+d} * {a} = {c}")
        lines += [
            f"total:      {self.total}",
            f"d:          {self.d}",
            f"d_bar:      {self.d_bar}",
            f"d_under:    {self.d_under}",
            f"mu_bar:     {self.mu_bar}",
            f"rokhlin:    {self.rokhlin if self.rokhlin is not None else 'undefined'}",
            f"order:      {self.order_verdict}",
            f"realizable: {self.realizability}",
        ]
        if self.oracle is not None:
            lines.append(f"oracle:     {self.oracle}")
        return "\n".join(lines)


def class_complex(a: LocalClass) -> IotaComplex:
    """An explicit iota-complex realizing the class ``a``.

    Each +1 in coefficient i contributes the standard complex of M(2i, 0);
    each -1 contributes its dual; the shift contributes a shifted trivial
    tower.  Generator count is 3^w, w = sum |c_i| the class's weight, capped
    at MAX_ORACLE_GENERATORS by comparing w with the largest weight under
    the cap, so no power of 3 is computed.

    The product t (x) f_1 (x) ... (x) f_k of the tower and the factors is
    built as (t (x) f_1) (x) (f_2 (x) (... (x) f_k)), folding from the
    right: ``tensor`` spreads each column of its left operand, so with a
    three-generator factor on the left every step spreads 3 columns, not
    one per generator of the growing product.  ``tensor`` is associative
    in every field, so the complex equals the left fold's.

    The factors come from ``_factor``, which keeps one complex per (i,
    sign): the last _KEPT_FACTORS (256) pairs used, about 700 B each.  The
    tower is always tensored in, so each result is a new complex and no
    kept factor reaches the caller.
    """
    from . import complexes

    weight = sum(abs(c) for _, c in a.coeffs)
    cap, size = -1, 1  # the largest weight with 3^cap <= MAX_ORACLE_GENERATORS
    while size <= MAX_ORACLE_GENERATORS:
        cap, size = cap + 1, 3 * size
    if weight > cap:
        raise OracleSizeError(
            f"oracle complex of weight {weight} needs 3^{weight} generators, "
            f"over the limit of {MAX_ORACLE_GENERATORS} (weight {cap} at most)")
    tower = complexes.trivial_complex(-a.shift)
    factors = []
    for i, c in a.coeffs:
        factors += [_factor(i, c < 0)] * abs(c)
    if not factors:
        return tower
    factors[0] = complexes.tensor(tower, factors[0])
    acc = factors[-1]
    for factor in reversed(factors[:-1]):
        acc = complexes.tensor(factor, acc)
    return acc


@lru_cache(maxsize=_KEPT_FACTORS)
def _factor(i: int, dual: bool) -> IotaComplex:
    """The standard complex of M(2i, 0), or with ``dual`` its dual, built
    once per (i, dual) while it stays among the last _KEPT_FACTORS used.
    A kept complex is frozen and only ever a ``tensor`` operand, so no
    caller of ``class_complex`` receives it."""
    from . import complexes

    factor = standard_complex(to_profile(MonotoneRoot(((2 * i, 0),))))
    return complexes.dual(factor) if dual else factor


def oracle_check(a: LocalClass, want: tuple[Fraction, Fraction, Fraction]) -> str:
    """Recompute (d, d-bar, d-under) on an explicit complex; raise on mismatch.

    ``want`` is the closed-form engine's triple for ``a``, computed by the
    caller, and the complex's triple must equal it.
    """
    from . import complexes

    got = complexes.correction_terms(class_complex(a))
    if got != want:
        raise OracleMismatchError(
            f"oracle disagrees for {a}: engine {tuple(map(str, want))}, "
            f"complex {tuple(map(str, got))}")
    return "agrees"


def evaluate(ast: ExpressionAST, input_text: str = "", oracle: bool = False) -> Report:
    term_rows = []
    for k, (w, atom) in enumerate(ast.terms):
        try:
            cls = atom_to_class(atom)
        except (ValueError, OSError) as e:
            where = f"{atom} at position {ast.positions[k]}" if ast.positions else str(atom)
            try:
                named = type(e)(f"{where}: {e}")
            except TypeError:  # a class with other arguments, as UnicodeDecodeError
                named = ValueError(f"{where}: {e}")
            raise named from e
        term_rows.append((w, str(atom), cls))
    total = LocalClass([(i, w * c) for w, _, cls in term_rows for i, c in cls.coeffs],
                       sum(w * cls.shift for w, _, cls in term_rows))
    terms = cterms.correction_terms(total)
    d, d_bar, d_under = terms
    mu = mu_bar(total)
    try:
        rk = rokhlin(total)
    except ValueError:
        rk = None
    report = Report(
        input_text=input_text or str(ast),
        terms=tuple(term_rows),
        total=total,
        d=d,
        d_bar=d_bar,
        d_under=d_under,
        mu_bar=mu,
        rokhlin=rk,
        order_verdict=infinite_order_verdict(total),
        realizability=str(realizability_check(total)),
        oracle=oracle_check(total, terms) if oracle else None,
    )
    return report


def evaluate_text(text: str, oracle: bool = False) -> Report:
    from .expr import parse

    return evaluate(parse(text), input_text=text, oracle=oracle)
