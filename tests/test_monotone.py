"""Monotone roots: profiles, subroot extraction, swaps, decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfi.complexes import correction_terms, locally_equivalent
from hfi.cterms import correction_terms as class_correction_terms
from hfi.localclass import LocalClass, Y
from hfi.monotone import (M, MonotoneRoot, WeaklyMonotoneRoot, decompose,
                          delta_tilde, monotone_subroot, simplify_weak, swap,
                          to_profile)
from hfi.roots import SymmetricRootProfile, standard_complex


def test_constructor_rejects_nonmonotone():
    with pytest.raises(ValueError):
        M(0, 0, 2, -2)  # h increasing
    with pytest.raises(ValueError):
        M(4, 2, 2, 0)  # r decreasing
    with pytest.raises(ValueError):
        M(2, 4)  # h_n < r_n
    with pytest.raises(ValueError):
        M(2, 0, 2, 2)  # equal h: only weakly monotone
    with pytest.raises(ValueError, match="r parameters must be strictly increasing"):
        M(4, 0, 2, 0)
    with pytest.raises(ValueError, match="need an even number of scalars"):
        M(1, 2, 3)
    with pytest.raises(ValueError):
        M(3, 0)  # mixed coset
    with pytest.raises(ValueError):
        MonotoneRoot(())


def test_inexact_parameters_are_refused_by_both_root_types():
    for build in (MonotoneRoot, WeaklyMonotoneRoot):
        with pytest.raises(ValueError, match="parameter 2.0 is not an int or a Fraction"):
            build(((2.0, 0.0),))
        with pytest.raises(ValueError, match="parameter 0.0 is not an int"):
            build(((4, 2), (2, 0.0)))
    with pytest.raises(ValueError, match="parameter 2.0"):
        M(2.0, 0)
    assert M(Fraction(5, 2), Fraction(1, 2)).params == ((Fraction(5, 2), Fraction(1, 2)),)


def test_bool_parameters_are_refused_by_both_root_types():
    for build in (MonotoneRoot, WeaklyMonotoneRoot):
        with pytest.raises(ValueError, match="parameter True is not an int"):
            build(((True, True),))
        with pytest.raises(ValueError, match="parameter False is not an int"):
            build(((2, False),))


def test_weak_constructor_allows_equalities():
    w = WeaklyMonotoneRoot(((2, 0), (2, 2)))
    assert w.type == 2
    assert str(w) == "M(2,0; 2,2)"


def test_delta_tilde_type_one_only():
    assert delta_tilde(M(4, -2)) == 6
    with pytest.raises(ValueError):
        delta_tilde(M(4, 0, 2, 2))


def test_to_profile_distinct_center():
    p = to_profile(M(4, -2, 2, 0))
    assert p.leaves == (4, 2, 2, 4)
    assert p.angles == (-2, 0, -2)


def test_to_profile_collapsed_center():
    # h_n = r_n: the two central leaves coincide with their merge vertex
    p = to_profile(M(6, 0, 2, 2))
    assert p.leaves == (6, 2, 6)
    assert p.angles == (0, 0)


def test_subroot_round_trips_monotone_input():
    for m in (M(2, 0), M(0, -4), M(4, 0, 2, 2), M(6, -4, 4, -2, 2, 0),
              M(Fraction(1, 2), Fraction(-7, 2))):
        assert monotone_subroot(to_profile(m)) == m


def test_subroot_drops_dominated_branch():
    # the inner (2, 0) branch pair is dominated by the outer (4, 0) pair
    p = SymmetricRootProfile((4, 2, 2, 4), (0, 0, 0))
    m = monotone_subroot(p)
    assert m == M(4, 0)
    assert locally_equivalent(standard_complex(p), standard_complex(to_profile(m)))


def test_subroot_keeps_j_invariant_center():
    p = SymmetricRootProfile((2, 0, 2), (-2, -2))
    assert monotone_subroot(p) == M(2, -2, 0, 0)


def test_simplify_weak_collapses_equal_parameters():
    assert simplify_weak(WeaklyMonotoneRoot(((2, 0), (2, 2)))) == M(2, 2)
    assert simplify_weak(WeaklyMonotoneRoot(((4, 0), (2, 0)))) == M(4, 0)
    assert simplify_weak(WeaklyMonotoneRoot(((2, 0), (2, 0), (0, 0)))) == M(2, 0)


def test_swap_basic_exchange():
    x, y = M(4, 0, 2, 2), M(6, -2)
    out = swap(x, y, 1, 1)
    assert out is not None
    nx, ny = out
    assert nx.params == ((Fraction(4), Fraction(0)),)
    assert ny.params == ((Fraction(6), Fraction(-2)), (Fraction(0), Fraction(0)))


def test_swap_invalid_returns_none():
    # moving the large tail under a small head violates monotonicity
    assert swap(M(0, -2), M(6, 0, 4, 2), 1, 1) is None


def test_swap_bad_index_raises():
    with pytest.raises(IndexError):
        swap(M(2, 0), M(2, 0), 2, 1)
    with pytest.raises(IndexError):
        swap(M(2, 0), M(2, 0), 1, 0)


def test_decompose_basic():
    c = decompose(M(4, 0, 2, 2))
    assert c.shift == -2
    assert dict(c.coeffs) == {2: 1, 1: -1}
    assert c == (Y(2) - Y(1)) + LocalClass(shift=-2)


def test_decompose_type_one():
    c = decompose(M(2, 0))
    assert dict(c.coeffs) == {1: 1}
    assert c.shift == 0


def test_decompose_trivial_summand_dropped():
    c = decompose(M(0, 0))
    assert dict(c.coeffs) == {}
    assert c.shift == 0


def test_decompose_matches_oracle_terms():
    for m in (M(2, 0), M(4, 0, 2, 2), M(0, -4), M(6, -4, 4, -2, 2, 0)):
        assert class_correction_terms(decompose(m)) == \
            correction_terms(standard_complex(to_profile(m)))


pair_lists = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=1, max_size=3)


def _weak_from_seed(pairs):
    pairs = [(2 * h, 2 * r) for h, r in pairs]
    hs = sorted((h for h, _ in pairs), reverse=True)
    rs = sorted(r for _, r in pairs)
    params = list(zip(hs, rs))
    while params and params[-1][0] < params[-1][1]:
        params.pop()
    if not params:
        return None
    return WeaklyMonotoneRoot(tuple(params))


@settings(max_examples=60, deadline=None)
@given(pair_lists, pair_lists, st.data())
def test_swap_preserves_combined_class(seed_a, seed_b, data):
    xa, xb = _weak_from_seed(seed_a), _weak_from_seed(seed_b)
    if xa is None or xb is None:
        return
    a = data.draw(st.integers(1, xa.type))
    b = data.draw(st.integers(1, xb.type))
    out = swap(xa, xb, a, b)
    if out is None:
        return
    na, nb = out
    before = decompose(simplify_weak(xa)) + decompose(simplify_weak(xb))
    after = decompose(simplify_weak(na)) + decompose(simplify_weak(nb))
    assert before == after


@settings(max_examples=40, deadline=None)
@given(pair_lists)
def test_subroot_locally_equivalent_to_profile(seed):
    w = _weak_from_seed(seed)
    if w is None or sum(abs(h) + abs(r) for h, r in w.params) > 12:
        return
    p = to_profile(simplify_weak(w))
    m = monotone_subroot(p)
    assert locally_equivalent(standard_complex(p), standard_complex(to_profile(m)))
