"""Closed-form correction terms: bound identity, stabilization, realization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfi.complexes import correction_terms as oracle_terms
from hfi.complexes import dual, tensor
from hfi.cterms import (MAX_CLASS_WEIGHT, ClassWeightError, STProfile,
                        asymptotic_check, correction_terms, d_lower_offset,
                        d_upper_offset_direct, lemma_identity, p_q_sequences,
                        realization_family, stabilized_terms)
from hfi.localclass import I, Y, d_invariant, mu_bar, zero
from hfi.monotone import M, to_profile
from hfi.roots import standard_complex


def test_profile_of_class():
    p = STProfile.of_class(Y(3) - 2 * Y(1) + Y(2))
    assert p.s == (3, 2)
    assert p.t == (1, 1)


def test_class_weight_above_budget_raises_before_expanding():
    # one unit over the cap, and one so large that expanding it cannot fit
    # in memory: both must fail on the weight sum alone
    for a in (MAX_CLASS_WEIGHT * Y(1) - Y(2), 99999999999 * Y(1)):
        weight = sum(abs(c) for _, c in a.coeffs)
        with pytest.raises(ClassWeightError) as e:
            correction_terms(a)
        assert isinstance(e.value, ValueError)
        assert str(MAX_CLASS_WEIGHT) in str(e.value) and str(weight) in str(e.value)
    assert STProfile.of_class(MAX_CLASS_WEIGHT * Y(1)).m == MAX_CLASS_WEIGHT


def test_profile_validation():
    with pytest.raises(ValueError):
        STProfile((1, 2), ())
    with pytest.raises(ValueError):
        STProfile((0,), ())
    # a float or a bool index is refused, so no bound runs in floats
    for s, t, message in (((1.5,), (), "s .* got 1.5"), ((True,), (), "s .* got True"),
                          ((2,), (1, Fraction(1)), "t .* got Fraction"),
                          ((2.0,), (1,), "s .* got 2.0")):
        with pytest.raises(ValueError, match=message):
            STProfile(s, t)


def test_p_q_sequences_small():
    p = STProfile((2,), (1,))
    P, Q = p_q_sequences(p)
    assert P == [0, -2]
    assert Q == [-4]


def test_single_positive_summand():
    assert correction_terms(Y(1)) == (2, 2, 0)
    assert correction_terms(Y(2)) == (4, 4, 0)


def test_single_negative_summand():
    assert correction_terms(-Y(2)) == (-4, 0, -4)


def test_shifted_classes():
    assert correction_terms(I(2)) == (-2, -2, -2)
    assert correction_terms(Y(2) - Y(1) + I(-2)) == (4, 4, 2)
    # the terms are ints when the shift is integral, Fractions otherwise
    assert {type(x) for x in correction_terms(Y(2) - Y(1) + I(-2))} == {int}
    half = correction_terms(Y(1) + I(Fraction(1, 2)))
    assert half == (Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))
    assert {type(x) for x in half} == {Fraction}


def test_mixed_class():
    # d = 2(6+4-5) = 10; the lower term drops all the way to 0 here
    assert correction_terms(Y(6) + Y(4) - Y(5)) == (10, 10, 0)


def test_zero_class():
    assert correction_terms(zero()) == (0, 0, 0)


def test_terms_match_exact_oracle_on_monotone_roots():
    from hfi.monotone import decompose
    for m in (M(2, 0), M(4, 0, 2, 2), M(0, -4), M(6, -4, 4, -2, 2, 0)):
        cls = decompose(m)
        assert correction_terms(cls) == oracle_terms(standard_complex(to_profile(m)))


def test_stabilized_terms_scale():
    a = Y(2) - Y(1)
    d, db, du = correction_terms(a)
    for k in (1, 2, 5):
        dk, dbk, duk = stabilized_terms(a, k)
        assert dk == k * d
    with pytest.raises(ValueError):
        stabilized_terms(a, 0)


def test_k_fold_sums_over_the_cap_name_k():
    # a class of weight 600 is under the cap, but its check reads the 21-fold
    # sum, of weight 21 * 600 = 12,600; at weight 500 the 21-fold sum is 10,500
    msg = r"k-fold sum at k = 21 has weight 21 \* 600 = 12600, above .* = 12000"
    with pytest.raises(ClassWeightError, match=msg):
        asymptotic_check(600 * Y(2))
    with pytest.raises(ClassWeightError, match=msg):
        stabilized_terms(600 * Y(2), 21)
    assert stabilized_terms(600 * Y(2), 20) == correction_terms(12000 * Y(2))
    rep = asymptotic_check(500 * Y(2))
    assert (rep.threshold, rep.verified_up_to) == (1, 21)
    # a class over the cap by itself is named as such, also at k = 1
    with pytest.raises(ClassWeightError, match=r"class has weight sum \|c_i\| = 12001"):
        stabilized_terms(MAX_CLASS_WEIGHT * Y(1) + Y(2), 1)


def test_asymptotic_s_dominant():
    rep = asymptotic_check(Y(3) - Y(1), persist=10)
    assert rep.regime == "s-dominant"
    assert rep.d_under_formula.endswith("- 6")


def test_asymptotic_t_dominant():
    rep = asymptotic_check(Y(1) - Y(3), persist=10)
    assert rep.regime == "t-dominant"
    assert rep.d_bar_formula.endswith("+ 6")


def test_asymptotic_one_sided():
    rep = asymptotic_check(Y(2), persist=5)
    assert rep.regime.startswith("one-sided")
    assert rep.threshold == 1


def test_asymptotic_rejects_unreduced_or_zero():
    with pytest.raises(ValueError):
        asymptotic_check(Y(2) - Y(2) + Y(1) - Y(1) + Y(3) - Y(3) + 0 * Y(1) + (Y(2) - Y(2)))
    with pytest.raises(ValueError):
        asymptotic_check(zero())


def test_realization_family_hits_targets():
    for Mv, Nv in ((1, 1), (2, 1), (1, 2), (0, 2), (3, 0)):
        for d in (-4, -2, 0, 2, 4):
            for mu in (-1, 0, 1):
                cls = realization_family(Mv, Nv, d, mu)
                dd, db, du = correction_terms(cls)
                assert (dd, db, du) == (d, d + 2 * Mv, d - 2 * Nv)
                assert mu_bar(cls) == mu


def test_realization_family_distinct_k():
    seen = set()
    for k in range(3):
        cls = realization_family(1, 1, -2, 0, k)
        assert correction_terms(cls) == (-2, 0, -4)
        seen.add(cls)
    assert len(seen) == 3


def test_realization_family_rejects_degenerate():
    with pytest.raises(ValueError):
        realization_family(0, 0, 0, 0)
    with pytest.raises(ValueError):
        realization_family(1, 1, 1, 0)  # odd d
    with pytest.raises(ValueError, match="M and N must be non-negative"):
        realization_family(-1, 1, 0, 0)
    with pytest.raises(ValueError, match="k must be non-negative"):
        realization_family(1, 1, 0, 0, -1)


def test_stabilized_terms_refuses_a_k_that_is_not_a_positive_int():
    # a bool is not an int: True read as k = 1, and 1.5 failed in an operator
    for k in (True, 1.5, 0):
        with pytest.raises(ValueError, match=f"k must be a positive int, got {k!r}"):
            stabilized_terms(Y(2) - Y(1), k)


def test_asymptotic_check_refuses_a_persist_that_is_not_a_non_negative_int():
    # persist = -5 reported verified_up_to = -3, below the threshold 2
    for persist in (-5, True, 2.0):
        with pytest.raises(ValueError,
                           match=f"persist must be a non-negative int, got {persist!r}"):
            asymptotic_check(Y(2) - Y(1), persist=persist)
    assert asymptotic_check(Y(2), persist=0).verified_up_to == 1


def test_realization_family_names_an_argument_that_is_not_an_int():
    # M = 1.5 failed as "basis index must be a positive integer, got 4.5",
    # and k = True read as k = 1
    for args, message in (((1.5, 1, 0, 0), "got M = 1.5"), ((1, True, 0, 0), "got N = True"),
                          ((1, 1, 0, 0, True), "k must be non-negative and an int, got True"),
                          ((1, 1, 0, 0, 1.0), "an int, got 1.0")):
        with pytest.raises(ValueError, match=message):
            realization_family(*args)


st_profiles = st.tuples(
    st.lists(st.integers(1, 8), max_size=5),
    st.lists(st.integers(1, 8), max_size=5),
).map(lambda p: STProfile(tuple(sorted(p[0], reverse=True)),
                          tuple(sorted(p[1], reverse=True))))


@given(st_profiles)
def test_maxmin_equals_minmax(p):
    assert lemma_identity(p)
    assert d_lower_offset(p) == d_upper_offset_direct(p)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=3))
def test_formula_agrees_with_tensor_oracle(coeffs):
    from hfi.localclass import LocalClass
    from hfi.monotone import decompose, monotone_subroot
    a = LocalClass(coeffs.items())
    size = sum(3 * abs(c) * i for i, c in a.coeffs)
    if size > 10:
        return
    factors = []
    for i, c in a.coeffs:
        f = standard_complex(to_profile(M(2 * i, 0)))
        if c < 0:
            f = dual(f)
        factors.extend([f] * abs(c))
    from hfi.complexes import trivial_complex
    acc = trivial_complex()
    for f in factors:
        acc = tensor(acc, f)
    assert correction_terms(a) == oracle_terms(acc)
