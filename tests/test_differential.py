"""Differential tests: each fast production path against its slow definition.

- closed-form tau against the Laufer computation sequence, step for step;
- the periodic integer tau steps against the ceiling formula, and against
  the semigroup description Delta(n) = [n in G] - [N - n in G];
- K^2 + s from Dedekind sums against the tree elimination on the plumbing;
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
- the expanded model's on-demand basis against the basis gathered eagerly
  at every grading;
- the local-map and homotopy systems in Kronecker layout against the same
  systems assembled term by term with equations numbered in order of first
  use: the same witnesses F and H and the same homotopies, not only the
  same verdicts;
- the Y-basis calculus against the iota-complex oracle: two small classes
  are equal exactly when their complexes are locally equivalent (the class
  is a complete invariant, Dai-Stoffregen), and the closed-form correction
  terms equal the oracle's.

Seeds are fixed and example counts bounded, so the suite stays fast.
"""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, seed, settings, strategies as st

from dense_reference import (ceiling_tau_deltas, compress_list,
                             dense_is_negative_definite, dense_k_squared,
                             dense_kernel, dense_rank, dense_solve_affine,
                             dict_find_local_map, dict_solve_homotopy,
                             grouped_basis, pareto_subroot_params,
                             restart_simplify_weak, slice_d_lower_offset,
                             slice_d_upper_offset)
from hfi import complexes, cterms, gf2
from hfi.brieskorn import (BrieskornParams, _compress_to_profile,
                           _k_squared_plus_s, _tau_deltas,
                           negative_continued_fraction, seifert_invariants,
                           seifert_plumbing, tau_closed_form, tau_sequence)
from hfi.localclass import I, Y
from hfi.monotone import M, WeaklyMonotoneRoot, monotone_subroot, simplify_weak, to_profile
from hfi.plumbing import PlumbingGraph, is_negative_definite, k_squared
from hfi.report import class_complex
from hfi.roots import SymmetricRootProfile, standard_complex

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


@seed(20170631)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRIPLES), st.integers(1, 10**4))
def test_periodic_deltas_match_the_ceiling_formula(triple, offset):
    b = BrieskornParams(*triple)
    alpha = math.prod(triple)
    # alpha is a multiple of every period, so the offset start is the one
    # that puts the tables out of phase with n = 0
    for start, stop in ((0, 2 * alpha + 16), (alpha, 2 * alpha),
                        (offset, offset + alpha)):
        assert list(_tau_deltas(b, start, stop)) == ceiling_tau_deltas(b, start, stop)


def _coprime_triples(b1, b2, b3):
    return [(a1, a2, a3) for a1 in range(2, b1) for a2 in range(a1 + 1, b2)
            for a3 in range(a2 + 1, b3)
            if math.gcd(a1, a2) == math.gcd(a1, a3) == math.gcd(a2, a3) == 1]


def test_deltas_count_semigroup_elements():
    # Can-Karakurt: for 0 <= n < alpha, Delta(n) = [n in G] - [N - n in G],
    # G the semigroup generated by a2 a3, a1 a3 and a1 a2, and
    # N = alpha - a1 a2 - a1 a3 - a2 a3
    triples = _coprime_triples(8, 16, 40)
    assert len(triples) == 503
    for a1, a2, a3 in triples:
        alpha = a1 * a2 * a3
        members = 1  # bit n set for n in G, n < alpha
        for g in (a2 * a3, a1 * a3, a1 * a2):
            shift = g
            while shift < alpha:
                members |= members << shift
                shift *= 2
        in_g = [members >> n & 1 for n in range(alpha)]
        N = alpha - a1 * a2 - a1 * a3 - a2 * a3
        want = [in_g[n] - (0 <= N - n and in_g[N - n]) for n in range(alpha)]
        assert list(_tau_deltas(BrieskornParams(a1, a2, a3), 0, alpha)) == want, (a1, a2, a3)


def test_dedekind_offset_matches_tree_elimination():
    triples = _coprime_triples(12, 30, 60)
    assert len(triples) == 2693
    for triple in triples:
        g, _ = seifert_plumbing(BrieskornParams(*triple))
        assert _k_squared_plus_s(BrieskornParams(*triple)) == k_squared(g) + g.n, triple


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
    # the alpha + 1 prefix compresses to the same extrema as the old
    # stopping point, 2 alpha + 16 steps
    assert (_compress_to_profile(_tau_deltas(b, 0, alpha + 1))
            == _compress_to_profile(_tau_deltas(b, 0, 2 * alpha + 16)))
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
def test_streamed_compression_matches_list_scan(deltas):
    taus = list(accumulate(deltas, initial=0))
    assert _compress_to_profile(iter(deltas)) == compress_list(taus)


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
    """(A, b, cols): a dense 0/1 matrix of up to 60 x 60, as lists of rows,
    with some zero rows and columns, and a right-hand side that is
    consistent about half the time."""
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    A = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), rows // 4):
        A[i] = [0] * cols
    for j in rng.sample(range(cols), cols // 4):
        for row in A:
            row[j] = 0
    if draw(st.booleans()):
        x = [rng.randrange(2) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, x)) % 2 for row in A]
    else:
        b = [rng.randrange(2) for _ in range(rows)]
    return A, b, cols


def _bits(v) -> int:
    """A dense 0/1 vector as an int, bit i for entry i."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _bitset(A: list[list[int]], cols: int) -> gf2.Matrix:
    return gf2.Matrix(len(A), [_bits([row[j] for row in A]) for j in range(cols)])


@seed(20170609)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_rank_matches_dense(system):
    A, _, cols = system
    assert gf2.rank(_bitset(A, cols)) == dense_rank(A, cols)


@seed(20170610)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_kernel_matches_dense_basis(system):
    A, _, cols = system
    K = dense_kernel(A, cols)
    assert gf2.kernel(_bitset(A, cols)) == gf2.Matrix(cols, [_bits(k) for k in K])


@seed(20170611)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_solve_affine_matches_dense(system):
    A, b, cols = system
    x = dense_solve_affine(A, b, cols)
    assert gf2.solve_affine(_bitset(A, cols), _bits(b)) == (None if x is None else _bits(x))


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


# Standard complexes of monotone roots with even parameters (3 to 7
# generators), all with tau in 2Z, so any two of them and their tensor
# products and duals can be compared by a local-map search.
SMALL_ROOTS = [M(2, 0), M(4, 0), M(0, -2), M(2, -2), M(4, 0, 2, 2),
               M(6, 0, 4, 2), M(4, -2, 2, 0)]


def _small_complex(rng, factors: int, roots=SMALL_ROOTS):
    c = None
    for _ in range(factors):
        f = standard_complex(to_profile(rng.choice(roots)))
        f = complexes.dual(f) if rng.random() < 0.5 else f
        c = f if c is None else complexes.tensor(c, f)
    return c


def _random_truncated_complexes():
    rng = random.Random(20170628)
    out = [complexes.trivial_complex(), class_complex(Y(1) - Y(2) + I(-2))]
    out += [_small_complex(rng, rng.randint(1, 2)) for _ in range(10)]
    return [(c, N) for c in out for N in sorted({1, 2, 3, c.truncation, c.truncation + 2})]


def test_on_demand_basis_matches_the_eager_build():
    for c, N in _random_truncated_complexes():
        exp = complexes.Expanded(c.gradings, c.diff, N, c.tau)
        window = range(exp.bottom - 2 * N - 2, exp.top + 3)
        # dim reads present, so the dims build no basis tuple
        assert [exp.dim(t) for t in window] and not exp.basis.built
        assert dict(exp.basis) == grouped_basis(exp.offsets, N)
        for t in window:
            assert exp.dim(t) == len(exp.basis.get(t, ()))
            if t not in exp.present:
                with pytest.raises(KeyError):
                    exp.basis[t]


def _assert_same_systems(a, b, rng):
    """find_local_map a -> b, and solve_homotopy a -> b on up to three
    right-hand sides and three truncations, return the same maps under both
    assemblies; True if a -> b is feasible."""
    w = complexes.find_local_map(a, b)
    want = dict_find_local_map(a, b)
    assert (None if w is None else (w.F, w.H)) == want
    eb = complexes.Expanded(b.gradings, b.diff, max(a.truncation, b.truncation), a.tau)
    degree0 = eb.below(complexes._offsets(a.gradings, a.tau), 0)
    rhss = [tuple(rng.getrandbits(b.n) & col for col in degree0)]
    if w is not None:
        mul, add = complexes.mat_mul, complexes.mat_add
        rhss += [add(mul(w.F, a.iota), mul(b.iota, w.F)), w.F]
    # at truncation 1 or 2 the terms at U^N and above leave the equations
    shallow = [(dataclasses.replace(a, truncation=N), dataclasses.replace(b, truncation=N))
               for N in (1, 2)]
    for x, y in [(a, b)] + shallow:
        for rhs in rhss:
            assert complexes.solve_homotopy(x, y, rhs) == dict_solve_homotopy(x, y, rhs)
    return w is not None


def test_kronecker_assembly_matches_the_dict_reference():
    # 16 locally equivalent pairs (b = a (x) s (x) s^dual) and 16 pairs drawn
    # independently, searched in both directions
    rng = random.Random(20170629)
    independent = []
    for k in range(32):
        if k % 2 == 0:
            a = _small_complex(rng, 1)
            s = _small_complex(rng, 1, SMALL_ROOTS[:4])  # 3 generators
            b = complexes.tensor(a, complexes.tensor(s, complexes.dual(s)))
        else:
            a, b = (_small_complex(rng, rng.randint(1, 2)) for _ in range(2))
        ways = [_assert_same_systems(a, b, rng), _assert_same_systems(b, a, rng)]
        if k % 2 == 0:
            assert ways == [True, True], "an equivalent pair has local maps both ways"
        else:
            independent += ways
    # the independent pairs exercise both feasible and infeasible systems
    assert True in independent and False in independent


def test_kronecker_assembly_matches_the_dict_reference_off_the_involution():
    # the iota on std(2, 0) with iota^2(v2) = 0 (no homotopy to id), and
    # iota' = iota + dK + Kd on a tensor product (a homotopy exists)
    rng = random.Random(20170630)
    mul, add = complexes.mat_mul, complexes.mat_add
    c = standard_complex(to_profile(M(2, 0)))
    bad = complexes.iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                                 [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tau=c.tau)
    t = complexes.tensor(c, standard_complex(to_profile(M(4, 0, 2, 2))))
    exp = complexes.Expanded(t.gradings, t.diff, t.truncation, t.tau)
    K = tuple(rng.getrandbits(t.n) & col for col in exp.below(exp.offsets, 1))
    twisted = dataclasses.replace(t, iota=add(t.iota, add(mul(t.diff, K), mul(K, t.diff))))
    found = []
    for x in (bad, twisted):
        square_plus_id = add(mul(x.iota, x.iota), tuple(1 << j for j in range(x.n)))
        H = complexes.solve_homotopy(x, x, square_plus_id)
        assert H == dict_solve_homotopy(x, x, square_plus_id)
        found.append(H is not None)
        _assert_same_systems(x, c, rng)
        _assert_same_systems(c, x, rng)
    assert found == [False, True]
