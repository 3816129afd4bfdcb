"""Differential tests: each fast production path against its slow definition.

- closed-form tau against the Laufer computation sequence, step for step;
- the periodic integer tau steps against the ceiling formula, and against
  the semigroup description Delta(n) = [n in G] - [N - n in G];
- K^2 + s from Dedekind sums against the tree elimination on the plumbing;
- the alpha + 1 stopping rule against the old 2 alpha + 16 stopping
  point, with the two facts its proof rests on;
- the half stream of ``brieskorn_root``, Delta(0..ceil(N0/2)) mirrored,
  against the extrema of the full alpha + 1 stream, with the antisymmetry
  and the tail its proof rests on, for N0 of both parities;
- the integer tree pass (K^2, negative definiteness) against dense Fraction
  elimination;
- the exact almost-rationality test, one fixed-vertex closure per vertex,
  against the test that rebuilds the graph for each weight it tries, and
  the Laufer start's rationality test against chi of the minimal cycle;
- the running-minimum monotone subroot against the O(n^2) Pareto scan;
- ``simplify_weak`` (the monotone subroot of the profile) against the
  pair-deleting restart loop, in the cosets 0, 1 and 1/2 of 2Z;
- the run-by-run extrema compression against the list scan;
- the running-minimum and running-maximum correction-term bounds against
  their row-by-row prefix-slice definitions;
- bitset GF(2) rank, kernel and affine solve against the dense reduced
  row-echelon form, vector for vector;
- the expanded model's basis, read off its chain-group masks, against the
  basis gathered from the generators' grading groups;
- the truncated reference scans at the smallest truncation their probe
  admits against every larger truncation up to 7 past the default: the
  same triple, which is the closed-form one on class complexes;
- the offsets that tensor products, duals and mapping cones derive in int
  arithmetic against those ``graded_complex`` reads off the exact gradings;
- the oracle's exact pass, with no truncation, against those truncated
  scans, also on relabelled complexes in the coset 1/2 of Z and on an
  acyclic one;
- exact homology ranks, from the one elimination of L = C/(U - 1),
  against the truncated models from the old default N to 4 past it, on
  complexes, their relabelled copies in the coset 1/2 of Z and their
  mapping cones; and the exact tower check of ``validate`` against the
  probe reading of the truncated model;
- the cone elimination of ``correction_terms``, its Q-copies started from
  the vectors C's columns reduced to, against the elimination of the
  cone's own columns: the same sizes, ranks and leads per level, and the
  truncated scans' triple;
- the local-map and homotopy systems in Kronecker layout against the same
  systems assembled term by term with equations numbered in order of first
  use: the same witnesses F and H and the same homotopies, not only the
  same verdicts; the exact local-map search, which builds no truncated
  model, matches that reference, which does, also on pairs shifted by
  tau +- 2 and in the coset 1/2 + Z;
- the gauge-fixed local-map columns against the full columns and the dict
  reference: the same verdict both ways, every dropped unknown reachable
  by a gauge change, and the budget counted on every unknown; and, on a
  complex whose iota is not a chain map, the verdict the gauge fixing
  loses;
- the Y-basis calculus against the iota-complex oracle: two small classes
  are equal exactly when their complexes are locally equivalent (the class
  is a complete invariant, Dai-Stoffregen), and the closed-form correction
  terms equal the oracle's, also on two classes at the oracle's cap of
  2187 generators;
- the class complex, folded from the right, against the left fold, field
  for field, on seeded classes and on every ``oracle_cross_check`` class of
  ``perfbench/reference.json``; and the mapping cone's levels, derived from
  the complex's, against those read off the cone's offsets;
- the tag-free ``gf2.rank`` against the length of the tagged
  ``gf2.Echelon`` basis, and ``validate``'s tower check, one rank of d,
  against the lowest level of ``_eliminate`` on every complex of the
  ``local_equivalence`` pairs.

Seeds are fixed and example counts bounded, so the suite stays fast.
"""

import dataclasses
import json
import math
import random
import re
from fractions import Fraction
from itertools import accumulate, chain, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from dense_reference import (below, ceiling_tau_deltas, compress_list,
                             cone_complex, default_truncation,
                             dense_is_negative_definite, dense_k_squared,
                             dense_kernel, dense_rank,
                             dense_solve_affine, dict_find_local_map,
                             dict_solve_homotopy, grouped_basis,
                             left_fold_class_complex, mat_add,
                             pareto_subroot_params,
                             periodic_tau_deltas, rebuild_is_almost_rational,
                             restart_simplify_weak, slice_d_lower_offset,
                             slice_d_upper_offset, tau_closed_form,
                             truncated_correction_terms)
from hfi import complexes, cterms, gf2, report
from hfi.brieskorn import (BrieskornParams, _compress_to_profile,
                           _k_squared_plus_s, _semigroup_deltas, brieskorn_root,
                           negative_continued_fraction, seifert_invariants,
                           seifert_plumbing, tau_sequence)
from hfi.localclass import I, LocalClass, Y
from hfi.monotone import M, WeaklyMonotoneRoot, monotone_subroot, simplify_weak, to_profile
from hfi.plumbing import (PlumbingGraph, chi, graph_to_text, is_almost_rational,
                          is_negative_definite, is_rational, k_squared,
                          minimal_cycle)
from hfi.report import class_complex, evaluate_text
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
    laufer = tau_sequence(g, center, steps)
    assert list(tau_closed_form(b, steps)) == laufer
    # the production stream covers Delta(0..N0)
    n0 = _n0(triple)
    assert list(accumulate(_semigroup_deltas(b, n0 + 1), initial=0)) == laufer[:n0 + 2]


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
        assert list(periodic_tau_deltas(b, start, stop)) == ceiling_tau_deltas(b, start, stop)


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
        b = BrieskornParams(a1, a2, a3)
        assert list(periodic_tau_deltas(b, 0, alpha)) == want, (a1, a2, a3)
        assert list(_semigroup_deltas(b, N + 1)) == want[:N + 1], (a1, a2, a3)


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
    assert list(periodic_tau_deltas(b, alpha, 2 * alpha)) == [
        d + 1 for d in periodic_tau_deltas(b, 0, alpha)]
    # tau is nondecreasing from n = alpha
    assert all(d >= 0 for d in periodic_tau_deltas(b, alpha, 2 * alpha + 16))
    # the alpha + 1 prefix compresses to the same extrema as the old
    # stopping point, 2 alpha + 16 steps
    assert (_compress_to_profile(periodic_tau_deltas(b, 0, alpha + 1))
            == _compress_to_profile(periodic_tau_deltas(b, 0, 2 * alpha + 16)))
    # the grading offset (K^2 + s)/4 is an even integer
    g, _ = seifert_plumbing(b)
    assert (k_squared(g) + g.n) % 8 == 0


def _n0(triple) -> int:
    a1, a2, a3 = triple
    return a1 * a2 * a3 - a1 * a2 - a1 * a3 - a2 * a3


# N0 is even exactly when a1, a2 and a3 are all odd; Sigma(2,3,5), with
# N0 = -1, is the only triple with N0 < 1
EVEN_N0 = [t for t in TRIPLES if _n0(t) % 2 == 0]
ODD_N0 = [t for t in TRIPLES if _n0(t) % 2 == 1 and _n0(t) > 0]


@seed(20170635)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EVEN_N0), st.sampled_from(ODD_N0))
def test_deltas_are_antisymmetric_on_0_to_n0_and_rise_after(even, odd):
    for triple in (even, odd):
        b, n0 = BrieskornParams(*triple), _n0(triple)
        half = list(periodic_tau_deltas(b, 0, n0 + 1))
        assert half == [-d for d in reversed(half)], triple
        assert list(_semigroup_deltas(b, n0 + 1)) == half, triple
        assert all(d >= 0 for d in periodic_tau_deltas(b, n0 + 1, 2 * math.prod(triple) + 17))
        assert half[0] == 1


@seed(20170636)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRIPLES))
def test_half_stream_root_matches_the_full_stream(triple):
    b = BrieskornParams(*triple)
    leaf_taus, angle_taus = _compress_to_profile(periodic_tau_deltas(b, 0, math.prod(triple) + 1))
    offset = _k_squared_plus_s(b) // 4
    p = brieskorn_root(b)
    assert p.leaves == tuple(-2 * t + offset for t in leaf_taus)
    assert p.angles == tuple(-2 * t + offset for t in angle_taus)


def test_half_stream_step_count_and_the_smallest_spheres(monkeypatch):
    streamed = []

    def recording(b, stop):
        steps = list(_semigroup_deltas(b, stop))
        streamed.append((stop, len(steps)))
        return iter(steps)

    monkeypatch.setattr("hfi.brieskorn._semigroup_deltas", recording)
    # Sigma(2,3,5): N0 = -1, no step, the single leaf at (K^2 + s)/4 = 2
    assert _n0((2, 3, 5)) == -1
    p = brieskorn_root(BrieskornParams(2, 3, 5))
    assert (p.leaves, p.angles, streamed) == ((2,), (), [(0, 0)])
    # Sigma(2,3,7): N0 = 1, the one step Delta(0) = 1 rises to the central
    # angle, which the mirror closes with the second leaf
    streamed.clear()
    assert _n0((2, 3, 7)) == 1
    p = brieskorn_root(BrieskornParams(2, 3, 7))
    assert (p.leaves, p.angles, streamed) == ((0, 0), (-2,), [(1, 1)])
    # the largest anchor of the acceptance family streams under half of alpha
    streamed.clear()
    brieskorn_root(BrieskornParams(17, 33, 35))
    half = (_n0((17, 33, 35)) + 1) // 2
    assert streamed == [(half, half)]
    assert 2 * streamed[0][1] < 17 * 33 * 35


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


def two_node_trees():
    """Nodes a and b of weight -1 or -2, each with three one-vertex legs of
    weight -2, -3 or -4, joined directly or through a short chain; the
    definite ones are not almost rational."""
    legs = list(combinations_with_replacement((-2, -3, -4), 3))
    chains = [(), (-2,), (-3,), (-2, -2), (-3, -3)]
    for wa, la, wb, lb, link in product((-1, -2), legs, (-1, -2), legs, chains):
        verts = [("a", wa), ("b", wb)]
        verts += [(f"a{i}", w) for i, w in enumerate(la)]
        verts += [(f"b{i}", w) for i, w in enumerate(lb)]
        verts += [(f"m{i}", w) for i, w in enumerate(link)]
        path = ["a"] + [f"m{i}" for i in range(len(link))] + ["b"]
        edges = [(x, f"{x}{i}") for x in "ab" for i in range(3)]
        edges += list(zip(path, path[1:]))
        yield PlumbingGraph(tuple(verts), tuple(edges))


def random_trees():
    rng = random.Random(16)
    for _ in range(4000):
        n = rng.randint(1, 12)
        parents = [rng.randint(0, i - 1) for i in range(1, n)]
        weights = [rng.randint(-6, 1) for _ in range(n)]
        order = rng.sample(range(n), n)
        yield PlumbingGraph(tuple((f"v{i}", weights[i]) for i in order),
                            tuple((f"v{p}", f"v{i}") for i, p in enumerate(parents, 1)))


def test_almost_rational_search_matches_the_rebuild_reference():
    # the shuffled vertex order puts many witnesses past vertex 0, and the
    # two-node family answers "no"
    definite = past_vertex_0 = no = 0
    for g in chain(random_trees(), two_node_trees()):
        if not is_negative_definite(g):
            continue
        definite += 1
        assert is_rational(g) == (chi(g, minimal_cycle(g)) == 1), graph_to_text(g)
        got = is_almost_rational(g)
        assert got == rebuild_is_almost_rational(g), graph_to_text(g)
        past_vertex_0 += got.verdict == "yes" and got.witness[0] != g.vertices[0][0]
        no += got.verdict == "no"
    assert (definite, past_vertex_0, no) == (1121, 21, 262)


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
# a c tie, where the outer pair replaces the last kept one: M(2, -2); and an
# h tie, where the outer pair is skipped: M(0, -2)
@example(SymmetricRootProfile((2, 0, 0, 2), (-2, -2, -2)))
@example(SymmetricRootProfile((0, 0, 0, 0), (-4, -2, -4)))
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


def _bitset(A: list[list[int]], cols: int) -> list[int]:
    """The bit columns of a dense 0/1 matrix."""
    return [_bits([row[j] for row in A]) for j in range(cols)]


@seed(20170609)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_rank_matches_dense(system):
    A, _, cols = system
    assert gf2.rank(_bitset(A, cols)) == dense_rank(A, cols)


def test_tag_free_rank_matches_the_echelon_basis():
    # seeded matrices up to 12 x 12 and a few 200 rows wide, with zero and
    # repeated columns; the empty matrix and matrices with no rows or no
    # columns among them
    rng = random.Random(20170650)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(0, 12), rng.randint(0, 12))
                                         for _ in range(300)] + [(200, 40)] * 5
    zero_columns = 0
    for nrows, ncols in shapes:
        cols = [rng.getrandbits(nrows) if rng.random() < 0.7 else 0 for _ in range(ncols)]
        cols += [rng.choice(cols) for _ in range(rng.randint(0, 2))] if cols else []
        zero_columns += cols.count(0)
        assert gf2.rank(cols) == len(gf2.Echelon(cols)), (nrows, cols)
    assert zero_columns > 0


@seed(20170610)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_kernel_matches_dense_basis(system):
    A, _, cols = system
    K = dense_kernel(A, cols)
    units = [1 << j for j in range(cols)]
    assert gf2.kernel(_bitset(A, cols), units) == [_bits(k) for k in K]


@seed(20170611)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_solve_affine_matches_dense(system):
    A, b, cols = system
    # the folded solve of hfi.complexes, with the unknowns as one row of
    # cols entries: the solution with free variables zero, entry for entry
    x = dense_solve_affine(A, b, cols)
    sol = complexes._solve(_bitset(A, cols), _bits(b), [([(1 << cols) - 1], cols)])
    assert (None if sol is None else list(sol[0])) == x


@seed(20170612)
@settings(max_examples=60, deadline=None)
@given(gf2_systems())
def test_bitset_solvable_matches_dense(system):
    A, b, cols = system
    M = _bitset(A, cols)
    assert gf2.solvable(M, _bits(b)) == (dense_solve_affine(A, b, cols) is not None)
    # 0 is in every span, also of no columns or of zero columns only
    assert gf2.solvable(M, 0)
    assert gf2.solvable([0] * cols, _bits(b)) == (not any(b))


# coefficients in {-2..2} on Y(1) and Y(2) and shifts 0, +-2, at most 81
# generators (3 per unit of |c_i|)
SMALL_CLASSES = [c1 * Y(1) + c2 * Y(2) + I(shift)
                 for c1, c2, shift in product(range(-2, 3), range(-2, 3), (0, 2, -2))
                 if 3 ** (abs(c1) + abs(c2)) <= 81]


def test_class_correction_terms_match_the_oracle():
    for a in SMALL_CLASSES:
        assert cterms.correction_terms(a) == complexes.correction_terms(class_complex(a)), a


@pytest.mark.parametrize("text", ["7*Y(1)", "3*Y(1) - 4*Y(2) + I[2]"])
def test_the_oracle_agrees_at_its_generator_cap(text):
    # weight 7: 3^7 = 2187 generators, the most under MAX_ORACLE_GENERATORS
    r = evaluate_text(text, oracle=True)
    assert r.oracle == "agrees"
    assert class_complex(r.total).n == 2187


BENCH_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


def _seeded_classes():
    """Two classes for each weight 0..7 and shift 0, +-2, 1/2: each unit of
    weight goes to one of Y(1)..Y(4), with a sign drawn per index."""
    rng = random.Random(20170642)
    out = []
    for weight, shift, _ in product(range(8), (0, 2, -2, Fraction(1, 2)), range(2)):
        signs = {i: rng.choice((-1, 1)) for i in range(1, 5)}
        units = [rng.randint(1, 4) for _ in range(weight)]
        out.append(LocalClass([(i, signs[i]) for i in units], shift))
    return out


def test_right_fold_class_complex_matches_the_left_fold():
    recorded = [LocalClass.from_json(entry["want"]["total"])
                for entry in json.loads(BENCH_REFERENCE.read_text())["oracle_cross_check"]]
    assert len(recorded) == 77
    seeded = _seeded_classes()
    assert {c > 0 for a in seeded for _, c in a.coeffs} == {True, False}
    assert {sum(abs(c) for _, c in a.coeffs) for a in seeded} == set(range(8))
    for a in seeded + recorded:
        c, want = class_complex(a), left_fold_class_complex(a)
        for field in dataclasses.fields(c):
            assert getattr(c, field.name) == getattr(want, field.name), (a, field.name)
        assert type(c.tau) is type(want.tau), a
        levels = complexes._levels(c.offsets)
        assert complexes._cone_levels(*levels, c.n) == \
            complexes._levels(cone_complex(c).offsets), a


def test_kept_factors_give_the_left_fold_after_eviction():
    # class i takes index i and one of the four before it, one or two units
    # each with a drawn sign: indices come back with both signs, so kept
    # factors are read back, and the 300 classes use more (i, sign) pairs
    # than the cache keeps, so some are evicted; the first 20 classes run
    # again at the end, when their factors have been evicted and are rebuilt
    report._factor.cache_clear()
    rng = random.Random(20170643)
    classes = []
    for i in range(1, 301):
        coeffs = {j: rng.choice((-1, 1)) * rng.randint(1, 2)
                  for j in {i, rng.randint(max(1, i - 4), i)}}
        classes.append(LocalClass(coeffs.items(), rng.choice((0, 2, -2, Fraction(1, 2)))))
    used = {(i, c < 0) for a in classes for i, c in a.coeffs}
    assert len(used) > report._KEPT_FACTORS and any((i, not d) in used for i, d in used)
    for a in classes + classes[:20]:
        c, want = class_complex(a), left_fold_class_complex(a)
        for field in dataclasses.fields(c):
            assert getattr(c, field.name) == getattr(want, field.name), (a, field.name)
        assert type(c.tau) is type(want.tau), a
    info = report._factor.cache_info()
    assert info.hits > 0 and info.misses > info.maxsize == info.currsize


def test_a_class_complex_is_never_a_kept_factor():
    first, second = class_complex(Y(1)), class_complex(Y(1))
    assert first == second and first is not second
    assert all(c is not report._factor(1, dual)
               for c in (first, second) for dual in (False, True))
    assert class_complex(I(2)) == complexes.trivial_complex(-2)


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


def _random_complexes(seed: int, count: int):
    rng = random.Random(seed)
    out = [complexes.trivial_complex(), class_complex(Y(1) - Y(2) + I(-2))]
    return out + [_small_complex(rng, rng.randint(1, 2)) for _ in range(count)]


def _random_truncated_complexes():
    out = []
    for c in _random_complexes(20170628, 10):
        D = default_truncation(c.gradings)
        out += [(c, N) for N in sorted({1, 2, 3, D, D + 2})]
    return out


def test_expanded_basis_matches_the_grouped_basis():
    for c, N in _random_truncated_complexes():
        exp = complexes.Expanded(c.gradings, c.diff, N, c.tau)
        assert exp.basis == grouped_basis(exp.offsets, N)
        for t in range(exp.bottom - 2 * N - 2, exp.top + 3):
            assert exp.dim(t) == len(exp.basis.get(t, ()))
            if t not in exp.present:
                with pytest.raises(KeyError):
                    exp.basis[t]


def _terms_from_the_smallest_truncation(c):
    """The one triple of ``truncated_correction_terms(c, N)`` for every N
    from the smallest that the probe admits to 7 past the default.

    Every smaller N must raise WindowError, and none of the larger ones may.
    """
    D = default_truncation(c.gradings)
    N = 1
    while True:
        try:
            first = truncated_correction_terms(c, N)
            break
        except complexes.WindowError:
            N += 1
    assert 1 < N <= D
    with pytest.raises(complexes.WindowError):
        truncated_correction_terms(c, N - 1)
    for M in range(N + 1, D + 8):
        assert truncated_correction_terms(c, M) == first, (c.labels, N, M)
    return first


def test_correction_terms_are_exact_from_the_edge_of_the_window():
    # 2 + 60 random complexes of up to 49 generators, and the 75 classes
    # of up to 81 generators
    for c in _random_complexes(20170632, 60):
        _terms_from_the_smallest_truncation(c)
    for a in SMALL_CLASSES:
        assert _terms_from_the_smallest_truncation(class_complex(a)) == \
            cterms.correction_terms(a), a


def _relabelled(c, rng):
    """c with its generators in a random order and every grading, tau
    included, raised by 1/2."""
    order = list(range(c.n))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}

    def move(col):
        return sum(1 << where[i] for i in complexes._bits(col))

    half = Fraction(1, 2)
    return complexes.graded_complex(
        [c.labels[i] for i in order], [c.gradings[i] + half for i in order],
        [move(c.diff[i]) for i in order], [move(c.iota[i]) for i in order],
        c.tau + half)


def test_stored_offsets_are_those_of_the_gradings():
    # tensor, dual and _cone_levels derive their offsets from tau in int
    # arithmetic; they are the offsets graded_complex reads off the exact
    # gradings (for the mapping cone, those of cone_complex), on seeded
    # standard complexes, tensor products (also of copies in the coset
    # 1/2 + Z), duals, class complexes, their mapping cones and the
    # relabelled copies
    rng = random.Random(20170636)
    built = _random_complexes(20170636, 20)
    built += [complexes.dual(c) for c in built[:10]]
    built += [class_complex(a) for a in rng.sample(SMALL_CLASSES, 8)]
    built += [_relabelled(c, rng) for c in built]
    built += [complexes.tensor(built[k], built[-k]) for k in range(1, 6)]
    for c in built:
        assert c.offsets == tuple(complexes._offsets(c.gradings, c.tau))
        assert complexes.graded_complex(c.labels, c.gradings, c.diff, c.iota, c.tau) == c
        assert complexes._cone_levels(*complexes._levels(c.offsets), c.n) == \
            complexes._levels(cone_complex(c).offsets)


def test_exact_pass_matches_the_truncated_scans():
    # 2 + 300 random complexes of up to 49 generators, each also relabelled
    # and shifted into 1/2 + Z, and twisted to iota + dK + Kd, an iota that
    # is no product or dual of reflections: the same triple, of the same
    # types, and the twisted copy keeps the terms of the complex
    rng, twists = random.Random(20170633), random.Random(20170646)
    moved = 0
    for c in _random_complexes(20170633, 300):
        twisted = _twisted(c, twists)
        moved += twisted.iota != c.iota
        for x in (c, _relabelled(c, rng), twisted):
            got = complexes.correction_terms(x)
            want = truncated_correction_terms(x, default_truncation(x.gradings))
            assert got == want, (x.labels, got, want)
            assert [type(g) for g in got] == [type(w) for w in want]
        assert complexes.correction_terms(twisted) == complexes.correction_terms(c)
    assert moved > 100, moved
    # d(x) = y: no tower, so both paths refuse, the exact pass with a
    # ValueError that names the failed validate check
    acyclic = complexes.iota_complex(("x", "y"), (1, 0), [[0, 0], [1, 0]],
                                     [[1, 0], [0, 1]], tau=0)
    with pytest.raises(ValueError, match="single U-inverted tower"):
        complexes.correction_terms(acyclic)
    with pytest.raises(RuntimeError, match="no tower class found"):
        truncated_correction_terms(acyclic, default_truncation(acyclic.gradings))


def test_seeded_cone_elimination_matches_the_cone(monkeypatch):
    # correction_terms eliminates the cone with its Q-copies seeded by the
    # vectors C's own columns reduced to; the (sizes, ranks, leads) of that
    # elimination are those of the cone's own columns, and the triple is
    # the truncated scans'.  Seeded standard complexes and their duals and
    # tensor products, with tau in Z and in 1/2 + Z, and every
    # oracle_cross_check class
    rng = random.Random(20170645)
    built = _random_complexes(20170645, 30)
    built += [complexes.dual(c) for c in built]
    built += [complexes.tensor(rng.choice(built), _relabelled(rng.choice(built), rng))
              for _ in range(20)]
    built += [class_complex(LocalClass.from_json(entry["want"]["total"]))
              for entry in json.loads(BENCH_REFERENCE.read_text())["oracle_cross_check"]]
    assert {c.tau.denominator for c in built} == {1, 2}
    eliminate, calls = complexes._eliminate, []

    def recording(grades, masks, diff, reduced=None):
        out = eliminate(grades, masks, diff, reduced)
        calls.append((grades, masks, out))
        return out

    monkeypatch.setattr(complexes, "_eliminate", recording)
    zero_after_xors = 0
    for c in built:
        calls.clear()
        try:
            got = complexes.correction_terms(c)
        except RuntimeError as e:
            got = e  # the eliminations it recorded are checked first
        levels = complexes._levels(c.offsets)
        (_, _, base), (grades, masks, seeded) = calls
        assert (grades, masks) == complexes._cone_levels(*levels, c.n)
        assert seeded == eliminate(grades, masks, complexes._cone_columns(c, c.diff)), c.labels
        assert got == truncated_correction_terms(c, default_truncation(c.gradings)), c.labels
        reduced = [0] * c.n
        assert eliminate(*levels, c.diff, reduced) == base
        zero_after_xors += sum(1 for col, v in zip(c.diff, reduced) if col and not v)
    # the seeds include zero vectors from columns that were not zero
    assert zero_after_xors > 0


def test_exact_homology_ranks_match_the_truncated_models():
    # 2 + 20 random complexes, each also relabelled and shifted into
    # 1/2 + Z (level masks whose bits are not contiguous, gradings off the
    # integers), and their mapping cones, over the window from 4 below the
    # bottom to 2 above the top: the exact ranks equal those of the models
    # at the old default N of the complex and at up to 4 past it, at every
    # grading they admit
    rng = random.Random(20170635)
    for c in _random_complexes(20170635, 20):
        D = default_truncation(c.gradings)
        for y in (c, _relabelled(c, rng)):
            for x in (y, cone_complex(y)):
                off = complexes._offsets(x.gradings, y.tau)
                window = [y.tau + t for t in range(min(off) - 4, max(off) + 3)]
                got = complexes.homology_ranks(x, window)
                assert list(got) == window
                for N in range(D, D + 5):
                    exp = complexes.Expanded(x.gradings, x.diff, N, y.tau)
                    for g, t in zip(window, complexes._offsets(window, y.tau)):
                        if t >= exp.stable_low:
                            assert got[g] == exp.homology_dim(t), (y.labels, N, g)


def test_exact_tower_check_matches_the_probe_reading():
    # validate's tower check reads L = C/(U - 1); at the old default N the
    # truncated model's probe gradings give the same two ranks, also on an
    # acyclic complex, on two towers and on a tower of each parity
    def raw(gradings, diff):
        n = len(gradings)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        return complexes.iota_complex("xyz"[:n], gradings, diff, identity, tau=0)

    failing = [raw((1, 0), [[0, 0], [1, 0]]), raw((0, 0), [[0, 0], [0, 0]]),
               raw((0, 1), [[0, 0], [0, 0]])]
    assert not any(complexes._single_tower_check(c)[0] for c in failing)
    for c in failing + _random_complexes(20170636, 40):
        exp = complexes.Expanded(c.gradings, c.diff, default_truncation(c.gradings), c.tau)
        d_even, d_odd = (exp.homology_dim(exp.probe(p)) for p in (0, 1))
        want = (d_even == 1 and d_odd == 0,
                f"deep homology ranks: {d_even} in tau-parity, {d_odd} off-parity")
        assert complexes._single_tower_check(c) == want


def _local_equivalence_complexes():
    """Both sides of every ``local_equivalence`` pair of
    ``perfbench/reference.json``: the tensor product of the standard
    complexes of each side's profiles."""
    out = []
    for entry in json.loads(BENCH_REFERENCE.read_text())["local_equivalence"]:
        for side in (entry["a"], entry["b"]):
            c = None
            for leaves, angles in side:
                f = standard_complex(SymmetricRootProfile(tuple(leaves), tuple(angles)))
                c = f if c is None else complexes.tensor(c, f)
            out.append(c)
    return out


def test_tower_check_rank_matches_the_lowest_level_of_the_elimination():
    # d has degree -1, so the tower check's one rank of d is the sum of the
    # ranks of d on the two parity classes that the lowest level of
    # _eliminate gives, with the sizes of the classes
    built = _local_equivalence_complexes()
    assert len(built) == 122 and max(c.n for c in built) == 165
    for c in built + _random_complexes(20170651, 40):
        sizes, ranks, _ = complexes._eliminate(*complexes._levels(c.offsets), c.diff)
        d_even, d_odd = (sizes[0][p] - ranks[0][0] - ranks[0][1] for p in (0, 1))
        want = (d_even == 1 and d_odd == 0,
                f"deep homology ranks: {d_even} in tau-parity, {d_odd} off-parity")
        assert complexes._single_tower_check(c) == want, c.labels


def test_a_built_complex_keeps_the_checks_it_would_compute():
    # trivial towers and standard complexes, and tensor products and duals
    # of such, keep _BUILT from construction; the four checks, run on each,
    # give that verdict field for field: on the 122 pair complexes, the 77
    # oracle class complexes and seeded random products and duals
    run_checks = complexes.IotaComplex._diagnostics.func
    pairs = _local_equivalence_complexes()
    classes = [class_complex(LocalClass.from_json(entry["want"]["total"]))
               for entry in json.loads(BENCH_REFERENCE.read_text())["oracle_cross_check"]]
    assert len(pairs) == 122 and len(classes) == 77
    rng = random.Random(20170653)
    pool = [complexes.trivial_complex(g) for g in (0, 1, -2, Fraction(1, 2))]
    pool += [standard_complex(to_profile(root)) for root in SMALL_ROOTS]
    drawn = []
    while len(drawn) < 200:
        a = rng.choice(pool + drawn[-20:])
        c = complexes.dual(a) if rng.random() < 0.3 else complexes.tensor(a, rng.choice(pool))
        if c.n <= 200:
            drawn.append(c)
    assert {c.tau.denominator for c in drawn} == {1, 2}
    for c in pairs + classes + drawn:
        assert vars(c)["_diagnostics"] is complexes._BUILT
        assert run_checks(c) == complexes._BUILT, c.labels
    # no other constructor keeps it: a raw complex, one read from raw maps,
    # a tensor product with a raw operand and the dual of a raw complex
    std = pool[4]
    raw = complexes.IotaComplex(std.labels, std.offsets, std.diff, std.iota, std.tau)
    for c in (raw, dataclasses.replace(std), complexes.tensor(raw, std),
              complexes.tensor(std, raw), complexes.dual(raw),
              complexes.iota_complex(("x",), (0,), [[0]], [[1]])):
        assert "_diagnostics" not in vars(c)


def _assert_same_systems(a, b, rng, refused=None):
    """find_local_map a -> b, and solve_homotopy a -> b on up to three
    right-hand sides (two of them from the dict reference's F, which equals
    the search's), return the same maps under both assemblies; True if
    a -> b is feasible.  With ``refused``, the name of a validate check that
    a or b fails, the search instead raises the ValueError that names it."""
    want = dict_find_local_map(a, b)
    if refused is None:
        w = complexes.find_local_map(a, b)
        assert (None if w is None else (w.F, w.H)) == want
    else:
        with pytest.raises(ValueError, match=re.escape(f"check {refused!r} fails")):
            complexes.find_local_map(a, b)
    eb = complexes.Expanded(b.gradings, b.diff, default_truncation(a.gradings + b.gradings),
                            a.tau)
    degree0 = below(eb, complexes._offsets(a.gradings, a.tau), 0)
    rhss = [tuple(rng.getrandbits(b.n) & col for col in degree0)]
    if want is not None:
        mul, add, F = complexes.mat_mul, mat_add, want[0]
        rhss += [add(mul(F, a.iota), mul(b.iota, F)), F]
    for rhs in rhss:
        assert complexes.solve_homotopy(a, b, rhs) == dict_solve_homotopy(a, b, rhs)
    return want is not None


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


def _twisted(c, rng):
    """c with iota' = iota + dK + Kd for a seeded K of degree +1, which
    keeps d iota' = iota' d; (c, iota') is locally equivalent to (c, iota)
    through F = id, H = K."""
    mul, add = complexes.mat_mul, mat_add
    exp = complexes.Expanded(c.gradings, c.diff, default_truncation(c.gradings), c.tau)
    K = tuple(rng.getrandbits(c.n) & col for col in below(exp, exp.offsets, 1))
    return dataclasses.replace(c, iota=add(c.iota, add(mul(c.diff, K), mul(K, c.diff))))


def _twisted_iota_complexes(rng):
    """std(2, 0); the iota on it with iota^2(v2) = 0 (no homotopy to id);
    and iota' = iota + dK + Kd on a tensor product (a homotopy exists).
    Both keep d iota = iota d."""
    c = standard_complex(to_profile(M(2, 0)))
    bad = complexes.iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                                 [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tau=c.tau)
    t = complexes.tensor(c, standard_complex(to_profile(M(4, 0, 2, 2))))
    return c, bad, _twisted(t, rng)


def test_kronecker_assembly_matches_the_dict_reference_off_the_involution():
    rng = random.Random(20170630)
    mul, add = complexes.mat_mul, mat_add
    c, bad, twisted = _twisted_iota_complexes(rng)
    found = []
    for x in (bad, twisted):
        square_plus_id = add(mul(x.iota, x.iota), tuple(1 << j for j in range(x.n)))
        H = complexes.solve_homotopy(x, x, square_plus_id)
        assert H == dict_solve_homotopy(x, x, square_plus_id)
        found.append(H is not None)
        # bad has no homotopy from iota^2 to id, so the search refuses it
        refused = None if H is not None else "iota^2 ~ id"
        _assert_same_systems(x, c, rng, refused)
        _assert_same_systems(c, x, rng, refused)
    assert found == [False, True]


def test_exact_local_map_search_matches_the_truncated_reference_off_the_unit():
    # the exact search against the reference, which builds both truncated
    # models at the default N: on pairs shifted by tau +- 2 and on pairs in
    # the coset 1/2 + Z; both directions, the same witnesses F and H
    rng = random.Random(20170634)
    up, down, half = (complexes.trivial_complex(g) for g in (2, -2, Fraction(1, 2)))
    tensor = complexes.tensor
    feasible = set()
    for k in range(16):
        if k % 2 == 0:
            a = _small_complex(rng, 1)
            s = _small_complex(rng, 1, SMALL_ROOTS[:4])
            b = tensor(a, tensor(s, complexes.dual(s)))
        else:
            a, b = (_small_complex(rng, rng.randint(1, 2)) for _ in range(2))
        for x, y in [(tensor(a, up), b), (a, tensor(b, down)),
                     (tensor(up, a), tensor(b, up)), (tensor(a, half), tensor(b, half))]:
            for p, q in ((x, y), (y, x)):
                w = complexes.find_local_map(p, q)
                assert (None if w is None else (w.F, w.H)) == dict_find_local_map(p, q)
                feasible.add(w is not None)
    assert feasible == {True, False}


def _gauge_vector(a, b, i: int, j: int) -> int:
    """vec(d_b X + X d_a), X the unit map a -> b at (i, j), from two products."""
    mul, add = complexes.mat_mul, mat_add
    X = tuple(1 << i if c == j else 0 for c in range(a.n))
    return sum(col << c * b.n for c, col in enumerate(add(mul(b.diff, X), mul(X, a.diff))))


def _assert_gauge_fixing_keeps_the_verdict(a, b, monkeypatch) -> tuple[bool, int, int]:
    """find_local_map a -> b, whose gauge-fixed columns are recorded, against
    the full columns and the dict reference; returns (feasible, F unknowns
    dropped, H unknowns dropped)."""
    shift = int(b.tau - a.tau)
    # the rows of F, H and the degree +2 gauge K
    F, H, K = ([a._at_or_below(t + shift - k) for t in b.offsets] for k in range(3))
    # the entries _gauge_entries selects are unknowns of their block
    for P, unknowns in ((complexes._gauge_entries(H, b.diff), F),
                        (complexes._gauge_entries(K, b.diff), H)):
        assert all(p & ~row == 0 for p, row in zip(P, unknowns))

    masks, columns = [], complexes._local_map_columns

    def recorded(*args):
        masks.append(args[3:])
        return columns(*args)

    with monkeypatch.context() as m:
        m.setattr(complexes, "_local_map_columns", recorded)
        w = complexes.find_local_map(a, b)
    fixed_f, fixed_h = masks[0]
    dropped = []
    for full, fixed, gauges in ((F, fixed_f, H), (H, fixed_h, K)):
        # the feasibility pass adds no unknown, and a gauge change (the
        # gauge vectors dX + Xd of the unknowns of H, then of K) can set
        # every unknown it drops to zero
        assert all(f & ~row == 0 for f, row in zip(fixed, full))
        gone = sum(col << j * b.n for j, col in enumerate(complexes._spread(
            [row & ~f for row, f in zip(full, fixed)], a.n, 1)))
        e = gf2.Echelon(_gauge_vector(a, b, i, j) & gone
                        for i, row in enumerate(gauges) for j in complexes._bits(row))
        assert len(e) == gone.bit_count()
        dropped.append(gone.bit_count())
    nn = a.n * b.n
    cf, ch, cw = columns(a, b, a._tower, F, H)
    full = gf2.solvable(cf + ch + cw, b._tower << nn)
    want = dict_find_local_map(a, b)
    assert (w is not None) == full == (want is not None)
    assert (None if w is None else (w.F, w.H)) == want
    # the budget counts every F, H and slack unknown, before any elimination
    nf, nh = (sum(row.bit_count() for row in X) for X in (F, H))
    nw = b._index[1][1][-1].bit_count()

    def no_elimination(*args, **kw):
        raise AssertionError("a GF(2) elimination ran")

    with monkeypatch.context() as m:
        m.setattr(complexes, "MAX_LOCAL_MAP_UNKNOWNS", nf + nh + nw - 1)
        m.setattr(complexes.gf2, "Echelon", no_elimination)
        m.setattr(complexes.gf2, "solvable", no_elimination)
        with pytest.raises(complexes.SearchSizeError,
                           match=f"{nf} F-vars, {nh} H-vars, {nw} slack vars"):
            complexes.find_local_map(a, b)
    return (full, *dropped)


def test_gauge_fixed_local_map_search_matches_the_full_system(monkeypatch):
    # seeded pairs of small complexes, drawn independently or as
    # (a, a (x) s (x) s^dual), and the twisted-iota complexes against
    # std(2, 0): in both directions, the verdict of the gauge-fixed columns
    # is that of the full columns and of the dict reference.  The complex
    # with no homotopy from iota^2 to id is refused instead
    rng = random.Random(20170640)
    tensor = complexes.tensor
    pairs = []
    for k in range(12):
        if k % 2 == 0:
            a = _small_complex(rng, 1)
            s = _small_complex(rng, 1, SMALL_ROOTS[:4])
            pairs.append((a, tensor(a, tensor(s, complexes.dual(s)))))
        else:
            pairs.append(tuple(_small_complex(rng, rng.randint(1, 2)) for _ in range(2)))
    c, bad, twisted = _twisted_iota_complexes(rng)
    pairs.append((twisted, c))
    verdicts, dropped_f, dropped_h = set(), 0, 0
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            feasible, nf, nh = _assert_gauge_fixing_keeps_the_verdict(x, y, monkeypatch)
            verdicts.add(feasible)
            dropped_f += nf
            dropped_h += nh
    assert verdicts == {True, False} and dropped_f > 0 and dropped_h > 0
    for x, y in ((bad, c), (c, bad), (twisted, bad), (bad, twisted)):
        with pytest.raises(ValueError, match=r"check 'iota\^2 ~ id' fails"):
            complexes.find_local_map(x, y)


def test_local_map_search_refuses_an_iota_that_is_not_a_chain_map():
    # the gauge fixing keeps the verdict only when d^2 = 0 and d iota = iota d
    # hold on both sides, validate's first two checks.  On std(2, 0) with
    # iota(v2) = v1 + v2, an involution that is not a chain map, the full
    # system has a local map from the trivial complex that the gauge-fixed
    # system misses, so the search refuses the complex by that check.
    c = standard_complex(to_profile(M(2, 0)))
    x = complexes.iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                               [[1, 1, 0], [0, 1, 0], [0, 0, 1]], tau=c.tau)
    assert [ok for _, ok, _ in complexes.validate(x).checks] == [True, False, True, True]
    trivial = complexes.trivial_complex()
    assert dict_find_local_map(trivial, x) is not None
    with pytest.raises(ValueError, match="check 'iota chain map' fails"):
        complexes.find_local_map(trivial, x)
