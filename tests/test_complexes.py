"""Exact iota-complex oracle: validation, tensor/dual, correction terms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfi import complexes
from hfi.complexes import (correction_terms, dual, ensure_valid,
                           homology_ranks, iota_complex, locally_equivalent,
                           find_local_map, tensor, trivial_complex, validate)
from hfi.monotone import M, MonotoneRoot, to_profile
from hfi.roots import standard_complex


def std(*pairs):
    return standard_complex(to_profile(M(*pairs)))


def test_trivial_complex_is_the_unit():
    c = trivial_complex()
    assert validate(c).ok
    assert correction_terms(c) == (0, 0, 0)


def test_standard_complex_m20():
    # h = 2, r = 0: d-tower at 2, the involution obstructs nothing above 0
    c = std(2, 0)
    assert validate(c).ok
    assert correction_terms(c) == (2, 2, 0)


def test_dual_negates_and_swaps_correction_terms():
    c = std(2, 0)
    d, d_bar, d_under = correction_terms(dual(c))
    assert (d, d_bar, d_under) == (-2, 0, -2)


def test_homology_ranks_of_branched_tower():
    c = std(0, -2)
    ranks = homology_ranks(c, [0, -1, -2, -3, -4])
    assert ranks[Fraction(0)] == 2
    assert ranks[Fraction(-1)] == 0
    assert ranks[Fraction(-2)] == 1
    assert ranks[Fraction(-4)] == 1


def test_tensor_with_dual_is_locally_trivial():
    c = std(0, -2)
    assert correction_terms(tensor(c, dual(c))) == (0, 0, 0)


def test_tensor_of_standard_complexes():
    # M(2,0) (x) M(2,0): d-tower at 4, involutive lower tower trails by 2s_1
    t = tensor(std(2, 0), std(2, 0))
    ensure_valid(t)
    d, d_bar, d_under = correction_terms(t)
    assert d == 4 and d_bar == 4 and d_under == 2


def test_validate_rejects_broken_differential():
    # d(x) = y with gr(x) = gr(y) violates the degree -1 requirement
    c = iota_complex(("x", "y"), (0, 0),
                     ((0, 1), (0, 0)),
                     ((1, 0), (0, 1)))
    assert not validate(c).ok


def test_validate_rejects_d_squared_nonzero():
    # chain x -> y -> z with both arrows nonzero and no cancellation
    c = iota_complex(("x", "y", "z"), (2, 1, 0),
                     ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
                     ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not validate(c).ok


def test_local_map_exists_only_one_way():
    # M(0,-4) admits a local map to M(0,-2) but not conversely
    a, b = std(0, -4), std(0, -2)
    assert find_local_map(a, b) is not None
    assert find_local_map(b, a) is None
    assert not locally_equivalent(a, b)


def test_local_equivalence_is_reflexive():
    c = std(4, 0, 2, 2)
    assert locally_equivalent(c, c)


def test_correction_terms_stable_under_truncation_refinement():
    c = tensor(std(2, 0), dual(std(4, 2)))
    n = c.truncation
    assert correction_terms(c) == correction_terms(c, truncation=n + 3)


def test_mapping_cone_ranks_split_into_two_towers():
    # deep gradings of the cone carry exactly the two U-nontorsion towers
    cone = complexes.mapping_cone(std(2, 0))
    lo = min(cone.gradings)
    ranks = homology_ranks(cone, [lo, lo + 1])
    assert sorted(ranks.values()) == [1, 1]


small_roots = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=2)


def _root_from_seed(pairs):
    pairs = sorted({(2 * h, 2 * r) for h, r in pairs}, key=lambda p: -p[0])
    hs = [h for h, _ in pairs]
    rs = sorted({r for _, r in pairs})
    n = min(len(hs), len(rs))
    chosen = [(hs[i], rs[i]) for i in range(n) if hs[i] >= rs[i]]
    chosen = [(h, r) for i, (h, r) in enumerate(chosen)
              if i == 0 or (h < chosen[i - 1][0] and r > chosen[i - 1][1])]
    if not chosen or chosen[-1][0] < chosen[-1][1]:
        return None
    return MonotoneRoot(tuple(chosen))


@settings(max_examples=30, deadline=None)
@given(small_roots, small_roots)
def test_group_axioms_on_random_standard_complexes(seed_a, seed_b):
    ra, rb = _root_from_seed(seed_a), _root_from_seed(seed_b)
    if ra is None or rb is None:
        return
    a = standard_complex(to_profile(ra))
    b = standard_complex(to_profile(rb))
    ab, ba = tensor(a, b), tensor(b, a)
    # commutativity at the level of correction terms
    assert correction_terms(ab) == correction_terms(ba)
    # inverse axiom: a (x) a^dual is locally trivial
    assert correction_terms(tensor(a, dual(a))) == (0, 0, 0)
    # unit axiom
    assert correction_terms(tensor(a, trivial_complex())) == correction_terms(a)


def test_mixed_coset_tensor_keeps_tau_sum():
    a = std(2, 0)
    b = standard_complex(to_profile(MonotoneRoot(((Fraction(1, 2), Fraction(1, 2)),))))
    t = tensor(a, b)
    assert t.tau == a.tau + b.tau


def test_validate_rejects_inhomogeneous_entry():
    # d(x) = (1 + U^2) y: the U^2 term has the wrong degree
    c = iota_complex(("x", "y"), (1, 0),
                     [[[], []], [[0, 2], []]],
                     ((1, 0), (0, 1)))
    failed = dict(validate(c).failed())
    assert "differential degree -1" in failed
    assert "exponent 2" in failed["differential degree -1"]


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        iota_complex(("x", "y"), (1, 0),
                     [[[], []], [[-1], []]],
                     ((1, 0), (0, 1)))


def test_grading_off_the_tau_coset_is_refused(monkeypatch):
    # A scan or probe on such a complex looks for a grading in tau + 2Z at or
    # below the generators and never finds one, so the check must come first.
    def no_scan(*args):
        raise AssertionError("a scan or probe ran on an off-coset complex")

    monkeypatch.setattr(complexes, "_d_scan", no_scan)
    monkeypatch.setattr(complexes, "_cone_scans", no_scan)
    monkeypatch.setattr(complexes.Expanded, "probe", no_scan)
    c = iota_complex(["a"], ["1/2"], [[0]], [[1]], tau=0)
    with pytest.raises(ValueError, match="grading 1/2"):
        correction_terms(c)
    with pytest.raises(ValueError, match="grading 1/2"):
        find_local_map(c, c)
    mixed = iota_complex(["a", "b"], [0, "1/2"], [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="grading 1/2"):
        homology_ranks(mixed, [0, -1])


# ---------------------------------------------------------------------------
# the sparse map layer: columns of (row, U-exponent) pairs

SIZE = 4


def _maps():
    col = st.frozensets(st.tuples(st.integers(0, SIZE - 1), st.integers(0, 6)),
                        max_size=5)
    return st.tuples(*[col] * SIZE)


IDENTITY = tuple(frozenset({(j, 0)}) for j in range(SIZE))
ZERO = (frozenset(),) * SIZE


@given(_maps(), _maps())
def test_map_addition_commutes(x, y):
    assert complexes.mat_add(x, y) == complexes.mat_add(y, x)


@given(_maps())
def test_map_addition_cancels(x):
    add = complexes.mat_add
    assert add(x, x) == ZERO
    assert add(x, ZERO) == x


def test_map_composition_convolves_exponents():
    # (1 + U) x composed with itself is (1 + U^2) x over GF(2): the U terms cancel
    x = (frozenset({(0, 0), (0, 1)}),)
    assert complexes.mat_mul(x, x) == (frozenset({(0, 0), (0, 2)}),)


@given(_maps(), _maps(), _maps())
def test_map_composition_is_associative(x, y, z):
    mul = complexes.mat_mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@given(_maps(), _maps(), _maps())
def test_map_composition_distributes(x, y, z):
    mul, add = complexes.mat_mul, complexes.mat_add
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))


@given(_maps())
def test_zero_and_identity_maps(x):
    assert complexes.mat_mul(IDENTITY, IDENTITY) == IDENTITY
    assert complexes.mat_mul(x, ZERO) == ZERO
    assert complexes.mat_mul(ZERO, x) == ZERO


@given(_maps())
def test_identity_map_is_unit(x):
    assert complexes.mat_mul(x, IDENTITY) == x
    assert complexes.mat_mul(IDENTITY, x) == x


@given(_maps(), _maps(), st.integers(0, 8))
def test_truncation_commutes_with_composition(x, y, n):
    def trunc(m):
        return tuple(frozenset(p for p in col if p[1] < n) for col in m)

    assert trunc(complexes.mat_mul(trunc(x), trunc(y))) == trunc(complexes.mat_mul(x, y))
    assert trunc(complexes.mat_add(x, y)) == complexes.mat_add(trunc(x), trunc(y))


def test_local_map_witness_is_an_iota_chain_map():
    a, b = tensor(std(2, 0), std(0, -2)), std(2, 0)
    w = find_local_map(a, b)
    assert w is not None
    mul, add = complexes.mat_mul, complexes.mat_add
    zero = (frozenset(),) * a.n
    assert add(mul(b.diff, w.F), mul(w.F, a.diff)) == zero
    assert (add(mul(b.iota, w.F), mul(w.F, a.iota))
            == add(mul(b.diff, w.H), mul(w.H, a.diff)))
