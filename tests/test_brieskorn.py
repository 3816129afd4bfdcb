"""Brieskorn spheres: plumbing data, graded roots, classes, mu-bar cross-check."""

import hashlib
import math
from fractions import Fraction

import pytest

from dense_reference import intersection_form, leading_minor_dets
from hfi import gf2
from hfi.brieskorn import (MAX_SIGMA_ALPHA, BrieskornParams, SigmaSizeError,
                           brieskorn_class, brieskorn_root,
                           negative_continued_fraction, seifert_plumbing,
                           tau_sequence)
from hfi.cterms import correction_terms
from hfi.localclass import I, Y, d_invariant, mu_bar
from hfi.monotone import M, monotone_subroot
from hfi.plumbing import graph_from_text, is_negative_definite
from hfi.report import evaluate_text


def test_params_validation():
    with pytest.raises(ValueError):
        BrieskornParams(3, 2, 5)  # not increasing
    with pytest.raises(ValueError):
        BrieskornParams(2, 4, 5)  # not coprime
    with pytest.raises(ValueError):
        BrieskornParams(1, 2, 3)  # a1 < 2


def test_negative_continued_fraction():
    assert negative_continued_fraction(5, 1) == [5]
    assert negative_continued_fraction(5, 4) == [2, 2, 2, 2]
    assert negative_continued_fraction(7, 5) == [2, 2, 3]
    # reconstruct 7/5 = 2 - 1/(2 - 1/3)
    x = Fraction(0)
    for a in reversed([2, 2, 3]):
        x = Fraction(a) - (Fraction(1) / x if x else 0)
    assert x == Fraction(7, 5)


def test_seifert_plumbing_is_negative_definite():
    for params in ((2, 3, 5), (2, 3, 7), (2, 7, 15), (5, 8, 13)):
        g, center = seifert_plumbing(BrieskornParams(*params))
        assert is_negative_definite(g)
        assert center == "c"
        # unimodular: integer homology sphere
        assert abs(leading_minor_dets(intersection_form(g))[-1]) == 1


def test_poincare_sphere_plumbing_is_e8():
    g, _ = seifert_plumbing(BrieskornParams(2, 3, 5))
    assert g.n == 8
    assert sorted(g.weights()) == [-2] * 8


def test_tau_sequence_starts_at_zero():
    g, c = seifert_plumbing(BrieskornParams(2, 3, 7))
    taus = tau_sequence(g, c, 30)
    assert taus[0] == 0
    assert len(taus) == 31


def test_tau_sequence_unknown_center_raises_value_error():
    g, _ = seifert_plumbing(BrieskornParams(2, 3, 7))
    with pytest.raises(ValueError):
        tau_sequence(g, "not-a-vertex", 5)


def test_tau_sequence_refuses_an_indefinite_tree(monkeypatch):
    # on c(-1) - a(0) the closure over a would never end, so the tree is
    # refused before any step; a closure that runs fails the test at once
    def refuse(*args, **kw):
        raise AssertionError("laufer_closure ran")

    monkeypatch.setattr("hfi.brieskorn.laufer_closure", refuse)
    g = graph_from_text("vertex c -1\nvertex a 0\nedge c a\n")
    for steps in (0, 3):
        with pytest.raises(ValueError, match="not negative definite"):
            tau_sequence(g, "c", steps)


def test_root_2_3_5():
    p = brieskorn_root(BrieskornParams(2, 3, 5))
    assert p.leaves == (2,)
    assert p.angles == ()


def test_root_2_3_7():
    p = brieskorn_root(BrieskornParams(2, 3, 7))
    assert p.leaves == (0, 0)
    assert p.angles == (-2,)


def test_root_2_7_15():
    p = brieskorn_root(BrieskornParams(2, 7, 15))
    assert p.leaves == (-6, -2, 0, 0, -2, -6)
    assert p.angles == (-8, -4, -4, -4, -8)


def test_class_2_3_5():
    _, cls = brieskorn_class(BrieskornParams(2, 3, 5))
    assert cls == I(-2)
    assert d_invariant(cls) == 2
    assert mu_bar(cls) == -1


def test_class_2_3_7():
    _, cls = brieskorn_class(BrieskornParams(2, 3, 7))
    assert cls == Y(1) + I(2)
    assert d_invariant(cls) == 0
    assert mu_bar(cls) == 1


def test_class_5_8_13():
    p, cls = brieskorn_class(BrieskornParams(5, 8, 13))
    assert monotone_subroot(brieskorn_root(BrieskornParams(5, 8, 13))) == M(4, 0, 2, 2)
    assert cls == Y(2) - Y(1) + I(-2)
    assert d_invariant(cls) == 4
    assert mu_bar(cls) == -1


def test_class_13_21_34():
    _, cls = brieskorn_class(BrieskornParams(13, 21, 34))
    assert cls == Y(6) - Y(5) + Y(4) + I(-2)
    assert mu_bar(cls) == -1


def test_family_p_2p_minus_1_2p_plus_1():
    for p in (3, 5, 7):
        _, cls = brieskorn_class(BrieskornParams(p, 2 * p - 1, 2 * p + 1))
        assert cls == Y((p - 1) // 2)


def _wu_class_mu_bar(params: BrieskornParams) -> Fraction:
    """Independent mu-bar: the spin Wu class of the plumbing lattice.

    Solve M x = diag(M) mod 2; the unique characteristic solution w with
    0/1 entries gives mu-bar = -(s + w M w^T) / 8 where s is the rank
    (signature is -s for a negative-definite form).
    """
    g, _ = seifert_plumbing(params)
    m = intersection_form(g)
    n = g.n
    a = gf2.Matrix(n, [sum((m[i][j] & 1) << i for i in range(n)) for j in range(n)])
    b = sum((m[i][i] & 1) << i for i in range(n))
    x = gf2.solve_affine(a, b)
    assert x is not None
    w = [x >> i & 1 for i in range(n)]
    wmw = sum(w[i] * m[i][j] * w[j] for i in range(n) for j in range(n))
    total = -g.n - wmw
    assert total % 8 == 0
    return Fraction(total, 8)


# SHA-256 of repr((leaves, angles)), recorded with the tau steps from the
# ceiling formula and K^2 + s from the tree elimination: the largest alpha
# and leaf counts under MAX_SIGMA_ALPHA
EXTREMES = {
    (2, 3, 166663): "734cce0ec706b26bfce4f9fadb27fd5a17e9c42d16f0f18496c8381e5fe536c4",
    (11, 13, 6991): "9d7a3a50d54d600f652caff1f2fb7c3ae70182456666a91c90d650d66e5a02ee",
    (97, 101, 102): "88aebac5f42273c535b7cc4207388db6a2a473511526eb16afd1c10daffd4a85",
}


def contractible_bounding_triples(alpha_max: int) -> list[tuple[int, int, int]]:
    """The pairwise-coprime Brieskorn spheres with alpha <= alpha_max that
    bound contractible 4-manifolds by Casson-Harer ("Some homology lens
    spaces which bound rational homology balls", Pacific J. Math. 96, 1981):
    Sigma(p, ps - 1, ps + 1) for p even and s odd, Sigma(p, ps + 1, ps + 2)
    and Sigma(p, ps - 1, ps - 2) for p odd; and Sigma(2,3,13), a Mazur
    manifold boundary (Akbulut-Kirby, "Mazur manifolds", Michigan Math. J.
    26, 1979)."""
    out = {(2, 3, 13)}
    for p in range(2, math.isqrt(alpha_max) + 1):
        s = 1
        while p * (p * s - 2) * (p * s - 1) <= alpha_max:
            if p % 2 == 0:
                triples = [(p, p * s - 1, p * s + 1)] if s % 2 else []
            else:
                triples = [(p, p * s + 1, p * s + 2), (p, p * s - 1, p * s - 2)]
            for t in map(sorted, triples):
                if (2 <= t[0] < t[1] < t[2] and math.prod(t) <= alpha_max
                        and math.gcd(t[0], t[1]) == math.gcd(t[0], t[2])
                        == math.gcd(t[1], t[2]) == 1):
                    out.add(tuple(t))
            s += 1
    return sorted(out)


def test_spheres_that_bound_contractible_manifolds_have_the_zero_class():
    # Such a sphere is homology cobordant to S^3, and the local class is a
    # homology-cobordism invariant (Hendricks-Manolescu, arXiv:1507.00383),
    # so it is 0 with shift 0 and d = d-bar = d-under = mu-bar = 0: a check
    # against 4-manifold topology, not against another engine here.  The
    # converse does not hold, so it is no test.
    triples = contractible_bounding_triples(10**5)
    assert len(triples) == 342 and (2, 5, 7) in triples and (3, 4, 5) in triples
    for t in triples:
        _, cls = brieskorn_class(BrieskornParams(*t))
        assert cls == I(0), t
        assert correction_terms(cls) == (0, 0, 0) and mu_bar(cls) == 0, t
    # and on the class complexes, through the oracle
    for text in ("Sigma(2,3,13)", "Sigma(3,4,5)", "-Sigma(2,5,7)",
                 "Sigma(2,5,7) - Sigma(3,4,5) + Sigma(5,8,9)"):
        report = evaluate_text(text, oracle=True)
        assert report.total == I(0) and report.oracle == "agrees", text


def test_extreme_profiles_are_pinned_and_graded_in_ints():
    for triple, digest in EXTREMES.items():
        p = brieskorn_root(BrieskornParams(*triple))
        assert all(type(g) is int for g in p.leaves + p.angles), triple
        assert hashlib.sha256(repr((p.leaves, p.angles)).encode()).hexdigest() == digest
    for triple in ((2, 3, 5), (2, 3, 7), (2, 7, 15), (5, 8, 13), (13, 21, 34)):
        p = brieskorn_root(BrieskornParams(*triple))
        assert all(type(g) is int for g in p.leaves + p.angles), triple


def test_class_needs_neither_the_plumbing_nor_the_tree_elimination(monkeypatch):
    def unused(*args):
        raise AssertionError("the plumbing was built")

    monkeypatch.setattr("hfi.brieskorn.seifert_plumbing", unused)
    monkeypatch.setattr("hfi.plumbing.k_squared", unused)
    monkeypatch.setattr("hfi.brieskorn.k_squared", unused, raising=False)
    assert brieskorn_class(BrieskornParams(2, 3, 5))[1] == I(-2)
    assert brieskorn_class(BrieskornParams(5, 8, 13))[1] == Y(2) - Y(1) + I(-2)


def test_mu_bar_matches_wu_class_oracle():
    for params in ((2, 3, 5), (2, 3, 7), (2, 7, 15), (5, 8, 13),
                   (3, 5, 7), (5, 9, 11), (7, 13, 15)):
        b = BrieskornParams(*params)
        _, cls = brieskorn_class(b)
        assert mu_bar(cls) == _wu_class_mu_bar(b), params


def test_alpha_above_budget_raises_before_any_tau_step(monkeypatch):
    def no_tau(*args):
        raise AssertionError("a tau step ran")

    monkeypatch.setattr("hfi.brieskorn._semigroup_deltas", no_tau)
    a3 = MAX_SIGMA_ALPHA // 6 + 1
    while math.gcd(a3, 6) != 1:
        a3 += 1
    with pytest.raises(SigmaSizeError) as e:
        brieskorn_class(BrieskornParams(2, 3, a3))
    assert isinstance(e.value, ValueError)
    assert str(MAX_SIGMA_ALPHA) in str(e.value) and str(6 * a3) in str(e.value)
