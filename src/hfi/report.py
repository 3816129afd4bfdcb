"""Evaluation of class expressions into invariant reports.

Each parsed term is converted to a local-equivalence class in the Y-basis;
the report carries the per-term classes, their signed total, the invariants
d, d-bar, d-under, mu-bar, and the Rokhlin invariant, plus the order and
realizability verdicts.  With the oracle enabled, the total class is also
realized as an explicit tensor iota-complex (one standard complex per basis
summand, dualized for negative coefficients) whose correction terms are
computed independently and must agree with the closed-form engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import complexes, cterms, localclass
from .brieskorn import BrieskornParams, brieskorn_class
from .expr import (Atom, ExpressionAST, FileAtom, IAtom, MAtom, SigmaAtom,
                   YAtom)
from .localclass import (LocalClass, d_invariant, infinite_order_verdict,
                         mu_bar, realizability_check, rokhlin)
from .monotone import MonotoneRoot, decompose, monotone_subroot, to_profile
from .roots import SymmetricRootProfile, profile_from_text, standard_complex

MAX_ORACLE_GENERATORS = 4096


class OracleMismatchError(AssertionError):
    """The independent complex-level computation disagrees with the engine."""


class OracleSizeError(ValueError):
    """The oracle tensor complex would exceed the generator limit."""


def profile_from_hf_minus_file(path: str) -> SymmetricRootProfile:
    """Read a root-profile file in HF-minus convention; gradings get the
    one-time +2 normalization shift on ingestion."""
    p = profile_from_text(Path(path).read_text())
    return SymmetricRootProfile(tuple(g + 2 for g in p.leaves),
                                tuple(g + 2 for g in p.angles))


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
        return decompose(monotone_subroot(profile_from_hf_minus_file(atom.path)))
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


def shifted_trivial_complex(delta) -> complexes.IotaComplex:
    """Iota-complex of the shifted trivial class: one tower at grading -delta."""
    return complexes.trivial_complex(-Fraction(delta))


def class_complex(a: LocalClass,
                  max_generators: int = MAX_ORACLE_GENERATORS) -> complexes.IotaComplex:
    """An explicit iota-complex realizing the class ``a``.

    Each +1 in coefficient i contributes the standard complex of M(2i, 0);
    each -1 contributes its dual; the shift contributes a shifted trivial
    tower.  Generator count is 3^(sum |c_i|), guarded by ``max_generators``.
    """
    size = 3 ** sum(abs(c) for _, c in a.coeffs)
    if size > max_generators:
        raise OracleSizeError(
            f"oracle complex needs {size} generators, over the limit of "
            f"{max_generators}")
    acc = shifted_trivial_complex(a.shift)
    for i, c in a.coeffs:
        factor = standard_complex(to_profile(MonotoneRoot(((2 * i, 0),))))
        if c < 0:
            factor = complexes.dual(factor)
        for _ in range(abs(c)):
            acc = complexes.tensor(acc, factor)
    return acc


def oracle_check(a: LocalClass, truncation: int | None = None) -> str:
    """Recompute (d, d-bar, d-under) on an explicit complex; raise on mismatch."""
    want = cterms.correction_terms(a)
    got = complexes.correction_terms(class_complex(a), truncation=truncation)
    if got != want:
        raise OracleMismatchError(
            f"oracle disagrees for {a}: engine {tuple(map(str, want))}, "
            f"complex {tuple(map(str, got))}")
    return "agrees"


def evaluate(ast: ExpressionAST, input_text: str = "", oracle: bool = False,
             truncation: int | None = None) -> Report:
    term_rows = []
    total = localclass.zero()
    for w, atom in ast.terms:
        cls = atom_to_class(atom)
        term_rows.append((w, str(atom), cls))
        total = total + w * cls
    d, d_bar, d_under = cterms.correction_terms(total)
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
        oracle=oracle_check(total, truncation) if oracle else None,
    )
    return report


def evaluate_text(text: str, oracle: bool = False,
                  truncation: int | None = None) -> Report:
    from .expr import parse

    return evaluate(parse(text), input_text=text, oracle=oracle,
                    truncation=truncation)
