"""Y-basis class group: arithmetic, homomorphisms, realizability checks."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hfi.localclass import (I, LocalClass, SphericalParams, Y, d_invariant,
                            infinite_order_verdict, mu_bar, rational,
                            realizability_check, rokhlin, spherical_params,
                            zero)

classes = st.builds(
    LocalClass,
    st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=4).map(dict.items),
    shift=st.integers(-6, 6).map(lambda k: 2 * k))


def test_zero_identity():
    assert zero().is_zero
    assert Y(2) + zero() == Y(2)


def test_make_drops_zero_coefficients():
    assert LocalClass({1: 0, 2: 1}.items()) == Y(2)


def test_make_rejects_bad_index():
    with pytest.raises(ValueError):
        LocalClass({0: 1}.items())
    with pytest.raises(ValueError):
        LocalClass({-2: 1}.items())


def test_a_zero_coefficient_gives_the_zero_class():
    a = LocalClass(((1, 0),), Fraction(0))
    assert a.is_zero and a == zero()
    assert "locally trivial" in infinite_order_verdict(a)


def test_unsorted_pairs_give_the_sorted_class():
    a = LocalClass(((2, 1), (1, -1)), Fraction(0))
    assert a == Y(2) - Y(1) and a.coeffs == ((1, -1), (2, 1))
    assert realizability_check(a).orientation == "+"


def test_a_repeated_index_adds_up():
    assert LocalClass(((3, 1), (1, 2), (3, -1), (1, 1))) == 3 * Y(1)
    assert LocalClass(((2, 1), (2, -1))).is_zero


def test_an_int_shift_gives_a_fraction_mu_bar():
    m = mu_bar(LocalClass(((1, 1),), 1))
    assert type(m) is Fraction and m == Fraction(1, 2)
    assert type(LocalClass().shift) is Fraction


def test_inexact_shifts_indices_and_coefficients_are_refused():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="inexact value 0.1"):
        I(0.1)
    with pytest.raises(ValueError, match="inexact value 0.5"):
        rational(0.5)
    assert rational("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError, match="basis index"):
        LocalClass(((1.0, 1),))
    with pytest.raises(ValueError, match="coefficient of Y\\[1\\]"):
        LocalClass(((1, Fraction(1, 2)),))
    with pytest.raises(ValueError, match="coefficient of Y\\[1\\]"):
        LocalClass.from_json({"coeffs": {"1": 1.5}, "shift": "0"})


def test_bool_indices_coefficients_and_shifts_are_refused():
    with pytest.raises(ValueError, match="basis index must be a positive integer, got True"):
        LocalClass([(True, 1)], 0)
    with pytest.raises(ValueError, match="coefficient of Y\\[1\\] must be an integer, got True"):
        LocalClass([(1, True)], 0)
    with pytest.raises(ValueError, match="inexact value True"):
        LocalClass([(1, 1)], True)


def test_shift_anchor_values():
    # the convention lock: I_2 has d = -2, (Y2 - Y1)[-2] has d = 4
    assert d_invariant(I(2)) == -2
    assert d_invariant(Y(2) - Y(1) + I(-2)) == 4


def test_mu_bar_is_half_shift():
    assert mu_bar(I(2)) == 1
    assert mu_bar(Y(3) + I(-4)) == -2


def test_rokhlin_parity():
    assert rokhlin(I(2)) == 1
    assert rokhlin(I(4)) == 0
    with pytest.raises(ValueError):
        rokhlin(LocalClass(shift=Fraction(1, 2)))


def test_scalar_multiplication():
    assert 3 * Y(1) == Y(1) + Y(1) + Y(1)
    assert -1 * Y(2) == -Y(2)


def test_infinite_order_verdict():
    assert "trivial" in infinite_order_verdict(zero())
    assert infinite_order_verdict(Y(1)) == "infinite order"
    assert infinite_order_verdict(I(2)) == "infinite order"


def test_realizability_alternating_passes():
    v = realizability_check(Y(2) - Y(1))
    assert not v.ok or v.orientation == "+"
    assert realizability_check(Y(2) - Y(1)).ok
    assert realizability_check(Y(6) + Y(4) - Y(5)).ok


def test_realizability_reversed_orientation():
    v = realizability_check(Y(1) - Y(2))
    assert v.ok and v.orientation == "-"


def test_realizability_failures():
    assert not realizability_check(2 * Y(1)).ok
    assert not realizability_check(Y(1) + Y(2)).ok
    assert not realizability_check(-Y(1) - Y(3)).ok


def test_spherical_params():
    sp = spherical_params(Y(2) + 2 * Y(1))
    assert sp.deltas == (4, 2, 2)
    assert sp.n == 3
    assert sp.d == d_invariant(Y(2) + 2 * Y(1))
    with pytest.raises(ValueError):
        spherical_params(-Y(1))


def test_spherical_params_validation():
    with pytest.raises(ValueError):
        SphericalParams(0, (2, 4))  # not weakly decreasing
    with pytest.raises(ValueError):
        SphericalParams(0, (3,))  # odd delta


def test_str_rendering():
    assert str(zero()) == "(0)[Δ=0]"
    assert str(Y(2) - Y(1) + I(-2)) == "(-1*Y[1] +1*Y[2])[Δ=-2]"


def test_json_round_trip():
    a = Y(3) - 2 * Y(1) + I(Fraction(1, 2))
    assert LocalClass.from_json(json.dumps(a.to_json())) == a


def test_from_json_zero_denominator_shift_is_a_value_error():
    with pytest.raises(ValueError, match="'1/0'"):
        LocalClass.from_json({"coeffs": {"1": 1}, "shift": "1/0"})


@given(classes, classes)
def test_group_commutativity(a, b):
    assert a + b == b + a


@given(classes, classes, classes)
def test_group_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(classes)
def test_inverse_and_identity(a):
    assert (a + (-a)).is_zero
    assert a + zero() == a


@given(classes, classes)
def test_d_and_mu_bar_are_homomorphisms(a, b):
    assert d_invariant(a + b) == d_invariant(a) + d_invariant(b)
    assert mu_bar(a + b) == mu_bar(a) + mu_bar(b)
    assert rokhlin(a + b) == (rokhlin(a) + rokhlin(b)) % 2
