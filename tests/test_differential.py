"""Differential tests: each fast production path against its slow definition.

- closed-form tau against the Laufer computation sequence, step for step;
- the alpha + 1 stopping rule of ``brieskorn_root`` against the old
  2 alpha + 16 stopping point, with the two facts its proof rests on;
- the tree elimination (K^2, negative definiteness) against dense Fraction
  elimination;
- the running-minimum monotone subroot against the O(n^2) Pareto scan;
- ``simplify_weak`` (the monotone subroot of the profile) against the
  pair-deleting restart loop, in the cosets 0, 1 and 1/2 of 2Z;
- the run-by-run extrema compression against the list scan;
- the running-minimum and running-maximum correction-term bounds against
  their row-by-row prefix-slice definitions;
- bitset GF(2) rank, kernel and affine solve against the dense reduced
  row-echelon form, vector for vector;
- the Y-basis calculus against the iota-complex oracle: two small classes
  are equal exactly when their complexes are locally equivalent (the class
  is a complete invariant, Dai-Stoffregen), and the closed-form correction
  terms equal the oracle's.

Seeds are fixed and example counts bounded, so the suite stays fast.
"""

import math
import random
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from dense_reference import (compress_list, dense_is_negative_definite,
                             dense_k_squared, dense_kernel, dense_rank,
                             dense_solve_affine, pareto_subroot_params,
                             restart_simplify_weak, slice_d_lower_offset,
                             slice_d_upper_offset)
from hfi import complexes, cterms, gf2
from hfi.brieskorn import (BrieskornParams, _compress_to_profile, _tau_deltas,
                           brieskorn_root, negative_continued_fraction,
                           seifert_invariants, seifert_plumbing,
                           tau_closed_form, tau_sequence)
from hfi.localclass import I, Y
from hfi.monotone import WeaklyMonotoneRoot, monotone_subroot, simplify_weak
from hfi.plumbing import PlumbingGraph, is_negative_definite, k_squared
from hfi.report import class_complex
from hfi.roots import SymmetricRootProfile

MAX_ALPHA = 5000
TRIPLES = [(a1, a2, a3)
           for a1 in range(2, 18)
           for a2 in range(a1 + 1, MAX_ALPHA // (2 * a1) + 2)
           for a3 in range(a2 + 1, MAX_ALPHA // (a1 * a2) + 1)
           if math.gcd(a1, a2) == math.gcd(a1, a3) == math.gcd(a2, a3) == 1]


def _vertices(triple) -> int:
    _, omegas = seifert_invariants(BrieskornParams(*triple))
    return 1 + sum(len(negative_continued_fraction(a, w))
                   for a, w in zip(triple, omegas))


# dense elimination is O(n^3) (O(n^4) for all leading minors): small graphs only
SMALL_TRIPLES = [t for t in TRIPLES if _vertices(t) <= 16]


@seed(20170604)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TRIPLES))
def test_closed_form_tau_matches_laufer_sequence(triple):
    b = BrieskornParams(*triple)
    g, center = seifert_plumbing(b)
    steps = 2 * math.prod(triple) + 16
    assert list(tau_closed_form(b, steps)) == tau_sequence(g, center, steps)


@seed(20170626)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRIPLES))
def test_stopping_rule_at_alpha_plus_one(triple):
    b = BrieskornParams(*triple)
    alpha = math.prod(triple)
    # quasi-periodicity: Delta(n + alpha) = Delta(n) + 1
    assert list(_tau_deltas(b, alpha, 2 * alpha)) == [
        d + 1 for d in _tau_deltas(b, 0, alpha)]
    # tau is nondecreasing from n = alpha
    assert all(d >= 0 for d in _tau_deltas(b, alpha, 2 * alpha + 16))
    # the old stopping point, through the same parameter, gives the same root
    assert brieskorn_root(b) == brieskorn_root(b, max_steps=2 * alpha + 16)
    # the grading offset (K^2 + s)/4 is an even integer
    g, _ = seifert_plumbing(b)
    assert (k_squared(g) + g.n) % 8 == 0


@seed(20170605)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_TRIPLES))
def test_tree_elimination_matches_dense_on_seifert_plumbings(triple):
    g, _ = seifert_plumbing(BrieskornParams(*triple))
    assert is_negative_definite(g) and dense_is_negative_definite(g)
    assert k_squared(g) == dense_k_squared(g)


@st.composite
def weighted_trees(draw):
    n = draw(st.integers(1, 10))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    weights = draw(st.lists(st.integers(-5, 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))  # the elimination root varies
    verts = tuple((f"v{i}", weights[i]) for i in order)
    edges = tuple((f"v{p}", f"v{i}") for i, p in enumerate(parents, 1))
    return PlumbingGraph(verts, edges)


@seed(20170606)
@settings(max_examples=100, deadline=None)
@given(weighted_trees())
def test_tree_elimination_matches_dense_on_random_trees(g):
    negdef = dense_is_negative_definite(g)
    assert is_negative_definite(g) == negdef
    try:
        k2 = k_squared(g)
    except ValueError:  # zero pivot: never for a definite form
        assert not negdef
    else:
        assert k2 == dense_k_squared(g)


@st.composite
def symmetric_profiles(draw):
    """Valid symmetric profiles: even gradings, angles below adjacent leaves."""
    n = draw(st.integers(1, 14))
    half = draw(st.lists(st.integers(-6, 6), min_size=(n + 1) // 2,
                         max_size=(n + 1) // 2))
    leaves = [2 * h for h in half] + [2 * h for h in half[: n // 2][::-1]]
    angles = []
    for i in range(n // 2):
        top = min(leaves[i], leaves[i + 1])
        angles.append(top - 2 * draw(st.integers(0, 4)))
    angles += angles[: (n - 1) // 2][::-1]
    return SymmetricRootProfile(tuple(leaves), tuple(angles))


@seed(20170607)
@settings(max_examples=100, deadline=None)
@given(symmetric_profiles())
def test_linear_subroot_matches_pareto_definition(p):
    assert monotone_subroot(p).params == pareto_subroot_params(p)


@st.composite
def weakly_monotone_roots(draw):
    """Weakly monotone roots of 1..9 pairs in the coset 0, 1 or 1/2 of 2Z,
    with repeated h and r values and h_n = r_n both likely."""
    coset = draw(st.sampled_from([0, 1, Fraction(1, 2)]))
    n = draw(st.integers(1, 9))
    steps = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    rs = list(accumulate(draw(steps)))
    hs = list(accumulate(draw(steps)))[::-1]
    lift = rs[-1] - hs[-1] + draw(st.integers(0, 2))  # h_n >= r_n
    return WeaklyMonotoneRoot(tuple((coset + 2 * (h + lift), coset + 2 * r)
                                    for h, r in zip(hs, rs)))


@seed(20170627)
@settings(max_examples=300, deadline=None)
@given(weakly_monotone_roots())
def test_simplify_weak_matches_the_restart_loop(w):
    assert simplify_weak(w) == restart_simplify_weak(w)


@seed(20170608)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=40))
def test_streamed_compression_matches_list_scan(taus):
    assert _compress_to_profile(iter(taus)) == compress_list(taus)


@st.composite
def st_profiles(draw):
    """Weakly decreasing s and t lists."""
    s, t = (draw(st.lists(st.integers(1, 9), max_size=12)) for _ in range(2))
    return cterms.STProfile(tuple(sorted(s, reverse=True)),
                            tuple(sorted(t, reverse=True)))


def _assert_running_bounds_match(p):
    assert cterms.d_lower_offset(p) == slice_d_lower_offset(p)
    assert cterms.d_upper_offset_direct(p) == slice_d_upper_offset(p)


@seed(20170625)
@settings(max_examples=300, deadline=None)
@given(st_profiles())
def test_running_bounds_match_prefix_slices(p):
    _assert_running_bounds_match(p)


def test_running_bounds_match_prefix_slices_on_the_edge_rows():
    # m = 0 and n = 0; the max-min bound's last row without Q_m (K = m, here
    # m = n and m < n) and the min-max bound's without P_{n+1} (K = n + 1,
    # here m = n + 1 and m > n + 1)
    for s, t in (((), ()), ((), (3, 1)), ((4, 2), ()), ((2, 2), (2, 1)),
                 ((5, 2), (3, 3, 1)), ((5, 3, 2), (4, 1)), ((5, 3, 2), (4,))):
        _assert_running_bounds_match(cterms.STProfile(s, t))


def test_reference_definitions_on_a_known_profile():
    # the profile of Sigma(2,7,15): (0, -4) dominates (-2, -4) and (-6, -8)
    p = SymmetricRootProfile((-6, -2, 0, 0, -2, -6), (-8, -4, -4, -4, -8))
    assert pareto_subroot_params(p) == ((Fraction(0), Fraction(-4)),)
    assert monotone_subroot(p).params == ((Fraction(0), Fraction(-4)),)


@st.composite
def gf2_systems(draw):
    """(A, b): a dense 0/1 matrix of up to 60 x 60 with some zero rows and
    columns, and a right-hand side that is consistent about half the time."""
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    A = (np.array([[rng.random() < density for _ in range(cols)] for _ in range(rows)],
                  dtype=np.uint8).reshape(rows, cols))
    A[rng.sample(range(rows), rows // 4), :] = 0
    A[:, rng.sample(range(cols), cols // 4)] = 0
    if draw(st.booleans()):
        b = A.astype(np.int64) @ np.array([rng.randrange(2) for _ in range(cols)],
                                          dtype=np.int64) % 2
    else:
        b = np.array([rng.randrange(2) for _ in range(rows)])
    return A, b.astype(np.uint8)


def _bits(v) -> int:
    """A dense 0/1 vector as an int, bit i for entry i."""
    return sum(1 << i for i in np.flatnonzero(v).tolist())


def _bitset(A: np.ndarray) -> gf2.Matrix:
    return gf2.Matrix(A.shape[0], [_bits(A[:, j]) for j in range(A.shape[1])])


@seed(20170609)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_rank_matches_dense(system):
    A, _ = system
    assert gf2.rank(_bitset(A)) == dense_rank(A)


@seed(20170610)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_kernel_matches_dense_basis(system):
    A, _ = system
    K = dense_kernel(A)
    assert gf2.kernel(_bitset(A)) == gf2.Matrix(A.shape[1], [_bits(K[:, c])
                                                            for c in range(K.shape[1])])


@seed(20170611)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_solve_affine_matches_dense(system):
    A, b = system
    x = dense_solve_affine(A, b)
    assert gf2.solve_affine(_bitset(A), _bits(b)) == (None if x is None else _bits(x))


# coefficients in {-2..2} on Y(1) and Y(2) and shifts 0, +-2, at most 81
# generators (3 per unit of |c_i|)
SMALL_CLASSES = [c1 * Y(1) + c2 * Y(2) + I(shift)
                 for c1, c2, shift in product(range(-2, 3), range(-2, 3), (0, 2, -2))
                 if 3 ** (abs(c1) + abs(c2)) <= 81]


def test_class_correction_terms_match_the_oracle():
    for a in SMALL_CLASSES:
        assert cterms.correction_terms(a) == complexes.correction_terms(class_complex(a)), a


def test_class_equality_is_local_equivalence():
    # 64 pairs: 16 equal, 16 unequal with equal correction terms (where the
    # terms cannot tell them apart), 32 drawn at random
    rng = random.Random(20170624)
    terms = {a: cterms.correction_terms(a) for a in SMALL_CLASSES}
    twins = [(a, b) for a in SMALL_CLASSES for b in SMALL_CLASSES
             if a != b and terms[a] == terms[b]]
    pairs = ([(a, a) for a in rng.sample(SMALL_CLASSES, 16)] + rng.sample(twins, 16)
             + [(rng.choice(SMALL_CLASSES), rng.choice(SMALL_CLASSES)) for _ in range(32)])
    built = {a: class_complex(a) for a in SMALL_CLASSES}
    for a, b in pairs:
        assert complexes.locally_equivalent(built[a], built[b]) == (a == b), (a, b)
