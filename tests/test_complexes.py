"""Exact iota-complex oracle: validation, tensor/dual, correction terms."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from dense_reference import (below, cone_complex, default_truncation, expand_map,
                             mat_add, pair_mul, truncated_correction_terms)
import hfi
from hfi import complexes
from hfi.complexes import (correction_terms, dual, homology_ranks,
                           iota_complex, locally_equivalent, find_local_map,
                           tensor, trivial_complex, validate)
from hfi.localclass import I, LocalClass, Y
from hfi.monotone import M, MonotoneRoot, to_profile
from hfi.report import class_complex, evaluate_text
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
    with pytest.raises(TypeError, match="not a complex"):
        homology_ranks("x", [0])


@pytest.mark.parametrize("name, args", [
    ("validate", ("x",)), ("complex_correction_terms", ("x",)),
    ("find_local_map", ("c", "x")), ("find_local_map", ("x", "c")),
    ("locally_equivalent", ("c", "x")), ("locally_equivalent", ("x", "c")),
    ("tensor", ("c", "x")), ("tensor", ("x", "c")), ("dual", ("x",)),
    ("homology_ranks", ("x", [0]))])
def test_a_non_complex_is_refused_with_a_type_error(name, args):
    c = trivial_complex()
    with pytest.raises(TypeError, match=r"^not a complex: 'x'$"):
        getattr(hfi, name)(*(c if a == "c" else a for a in args))


def test_tensor_with_dual_is_locally_trivial():
    c = std(0, -2)
    assert correction_terms(tensor(c, dual(c))) == (0, 0, 0)


def test_tensor_of_standard_complexes():
    # M(2,0) (x) M(2,0): d-tower at 4, involutive lower tower trails by 2s_1
    t = tensor(std(2, 0), std(2, 0))
    assert validate(t).ok
    d, d_bar, d_under = correction_terms(t)
    assert d == 4 and d_bar == 4 and d_under == 2
    assert validate(tensor(std(2, 0), std(0, -2))).ok


def test_validate_rejects_broken_differential():
    # d(y) = x with gr(x) = gr(y) violates the degree -1 requirement, and
    # the complex is refused where it is built
    with pytest.raises(ValueError, match=r"entry \(x, y\) exponent 0"):
        iota_complex(("x", "y"), (0, 0),
                     ((0, 1), (0, 0)),
                     ((1, 0), (0, 1)))


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


def test_local_map_search_above_its_size_limit_raises(monkeypatch):
    # this pair's system has 5 F-, 2 H- and 1 slack unknowns, 8 in all
    a, b = std(0, -4), std(0, -2)
    assert find_local_map(a, b) is not None
    monkeypatch.setattr(complexes, "MAX_LOCAL_MAP_UNKNOWNS", 7)
    with pytest.raises(hfi.SearchSizeError) as e:
        find_local_map(a, b)
    assert isinstance(e.value, ValueError)
    msg = str(e.value)
    assert all(s in msg for s in ("limit 7", "5 F-vars", "2 H-vars", "1 slack vars"))
    monkeypatch.setattr(complexes, "MAX_LOCAL_MAP_UNKNOWNS", 8)
    assert find_local_map(a, b) is not None


def test_local_map_budget_is_checked_before_any_elimination(monkeypatch):
    # the budget is read off the mask counts: no GF(2) elimination runs,
    # neither for the tower representatives nor for the system
    a, b = std(0, -4), std(0, -2)
    monkeypatch.setattr(complexes, "MAX_LOCAL_MAP_UNKNOWNS", 7)

    def no_elimination(*args, **kw):
        raise AssertionError("a GF(2) elimination ran")

    monkeypatch.setattr(complexes.gf2, "Echelon", no_elimination)
    monkeypatch.setattr(complexes.gf2, "solvable", no_elimination)
    for search in (find_local_map, locally_equivalent):
        with pytest.raises(hfi.SearchSizeError):
            search(a, b)


def test_tower_representative_is_not_a_boundary():
    # the first cycle of the even class, x, is the boundary of y, so the
    # tower representative is z, and the complex is locally trivial
    c = iota_complex(("x", "y", "z"), (0, 1, 0), [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], tau=0)
    assert validate(c).ok
    assert c._tower == 0b100
    assert locally_equivalent(c, trivial_complex())
    assert find_local_map(c, trivial_complex()).F == (0, 0, 1)


def test_local_equivalence_is_reflexive():
    c = std(4, 0, 2, 2)
    assert locally_equivalent(c, c)


def test_correction_terms_stable_under_truncation_refinement():
    c = tensor(std(2, 0), dual(std(4, 2)))
    n = default_truncation(c.gradings)
    assert correction_terms(c) == truncated_correction_terms(c, n + 3)


def test_mapping_cone_ranks_split_into_two_towers():
    # deep gradings of the cone carry exactly the two U-nontorsion towers
    cone = cone_complex(std(2, 0))
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


def _tensor_factors():
    """Trivial towers, seeded standard complexes and their duals, at int and
    ``Fraction`` tau."""
    half = standard_complex(to_profile(MonotoneRoot(((Fraction(1, 2), Fraction(1, 2)),))))
    out = [trivial_complex(), trivial_complex(-2), trivial_complex(Fraction(3, 2)),
           half, dual(half)]
    rng = random.Random(20170640)
    while len(out) < 15:
        root = _root_from_seed([(rng.randint(-3, 3), rng.randint(-3, 3))
                                for _ in range(rng.randint(1, 3))])
        if root is not None:
            c = standard_complex(to_profile(root))
            out += [c, dual(c)]
    return out


def test_tensor_is_associative_in_every_field():
    # report.class_complex folds its factors from the right and relies on
    # (a (x) b) (x) c and a (x) (b (x) c) being the same complex
    factors = _tensor_factors()
    rng = random.Random(20170641)
    triples = [(rng.choice(factors), rng.choice(factors), rng.choice(factors))
               for _ in range(80)]
    assert {type(a.tau) for a, _, _ in triples} == {int, Fraction}
    for a, b, c in triples:
        left, right = tensor(tensor(a, b), c), tensor(a, tensor(b, c))
        for field in dataclasses.fields(left):
            assert getattr(left, field.name) == getattr(right, field.name), field.name
        assert type(left.tau) is type(right.tau)


def test_mixed_coset_tensor_keeps_tau_sum():
    a = std(2, 0)
    b = standard_complex(to_profile(MonotoneRoot(((Fraction(1, 2), Fraction(1, 2)),))))
    t = tensor(a, b)
    assert t.tau == a.tau + b.tau


def test_validate_rejects_inhomogeneous_entry():
    # d(x) = (1 + U^2) y: the U^2 term has the wrong degree, so no complex
    # with it exists for validate, tensor or dual to see
    with pytest.raises(ValueError, match=r"entry \(y, x\) exponent 2"):
        iota_complex(("x", "y"), (1, 0),
                     [[[], []], [[0, 2], []]],
                     ((1, 0), (0, 1)))


def _twisted():
    """iota' = iota + dK + Kd on a tensor product, for a seeded degree +1
    map K: a chain map with iota'^2 homotopic to id but not equal to it."""
    c = tensor(std(2, 0), std(4, 0, 2, 2))
    assert c.n == 15
    mul, add = complexes.mat_mul, mat_add
    rng = random.Random(20170620)
    exp = complexes.Expanded(c.gradings, c.diff, default_truncation(c.gradings), c.tau)
    K = tuple(rng.getrandbits(c.n) & col for col in below(exp, exp.offsets, 1))
    return dataclasses.replace(c, iota=add(c.iota, add(mul(c.diff, K), mul(K, c.diff))))


def test_validate_finds_a_homotopy_when_iota_squared_is_not_id():
    # iota'^2 != id, so the iota^2 ~ id check has to solve for the homotopy
    c = _twisted()
    mul, add = complexes.mat_mul, mat_add
    square_plus_id = add(mul(c.iota, c.iota), tuple(1 << j for j in range(c.n)))
    assert any(square_plus_id)
    diag = validate(c)
    assert diag.ok, str(diag)
    assert dict((name, detail) for name, _, detail in diag.checks)[
        "iota^2 ~ id"] == "homotopy found"


def test_validate_rejects_iota_squared_not_homotopic_to_id():
    # std(2, 0): v1, v2 at grading 2, a1 at 1, d(a1) = U v1 + U v2.
    # iota(v1) = v1 + v2, iota(v2) = 0, iota(a1) = a1 is a chain map, but
    # iota^2(v2) = 0 and no degree +1 map H has dH + Hd = iota^2 + id there
    c = std(2, 0)
    assert c.labels == ("v1", "v2", "a1") and c.gradings == (2, 2, 1)
    diff = [[0, 0, [1]],
            [0, 0, [1]],
            [0, 0, 0]]
    iota = [[1, 0, 0],
            [1, 0, 0],
            [0, 0, 1]]
    bad = iota_complex(c.labels, c.gradings, diff, iota, tau=c.tau)
    assert bad.diff == c.diff
    assert [name for name, _ in validate(bad).failed()] == ["iota^2 ~ id"]


def _involutive_complexes():
    """A standard complex, a tensor product, a dual and class complexes:
    four fixed ones and four more drawn from a fixed seed."""
    fixed = [std(4, 0, 2, 2), tensor(std(2, 0), std(4, 0, 2, 2)),
             dual(std(4, 0, 2, 2)), class_complex(Y(1) - Y(2) + I(-2))]
    rng = random.Random(20170623)
    drawn = []
    while len(drawn) < 2:
        root = _root_from_seed([(rng.randint(-3, 3), rng.randint(-3, 3))
                                for _ in range(2)])
        if root is not None:
            drawn.append(standard_complex(to_profile(root)))
    for _ in range(2):
        coeffs = {i: rng.choice((-1, 1)) for i in rng.sample((1, 2, 3), 2)}
        drawn.append(class_complex(LocalClass(coeffs.items(), rng.choice((0, 2, -2)))))
    return fixed + drawn


def test_validate_skips_the_homotopy_solve_when_iota_squared_is_id(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve_homotopy ran")

    monkeypatch.setattr(complexes, "solve_homotopy", no_solve)
    for c in _involutive_complexes():
        diag = validate(c)
        assert diag.ok, str(diag)
        assert dict((name, detail) for name, _, detail in diag.checks)[
            "iota^2 ~ id"] == "iota^2 = id exactly"


def test_homotopy_solver_agrees_with_the_exact_involution_shortcut():
    mul, add = complexes.mat_mul, mat_add
    for c in _involutive_complexes():
        square_plus_id = add(mul(c.iota, c.iota), tuple(1 << j for j in range(c.n)))
        H = complexes.solve_homotopy(c, c, square_plus_id)
        assert H is not None and len(H) == c.n
        assert add(mul(c.diff, H), mul(H, c.diff)) == square_plus_id


def _no_model(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("an Expanded model was built")

    monkeypatch.setattr(complexes.Expanded, "__init__", refuse)


def test_validate_builds_no_truncated_model(monkeypatch):
    valid = _involutive_complexes() + [_twisted()]
    c = std(2, 0)
    bad = iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                       [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tau=c.tau)
    _no_model(monkeypatch)
    for c in valid:
        diag = validate(c)
        assert diag.ok, str(diag)
    assert [name for name, _ in validate(bad).failed()] == ["iota^2 ~ id"]


def _one_complex_per_validate_outcome():
    """(complex, expected checks) for each way a check can come out."""
    identity3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    c = std(2, 0)
    return [
        # x -> y -> z: d(d(x)) = z
        (iota_complex(("x", "y", "z"), (2, 1, 0),
                      ((0, 0, 0), (1, 0, 0), (0, 1, 0)), identity3),
         (("d^2 = 0", False, "d(d(x)) != 0"),
          ("iota chain map", True, "ok"),
          ("iota^2 ~ id", True, "iota^2 = id exactly"),
          ("single U-inverted tower", False,
           "deep homology ranks: 0 in tau-parity, -1 off-parity"))),
        # d(y) = z, iota swaps x and z: d iota(y) = z but iota d(y) = x
        (iota_complex(("x", "y", "z"), (0, 1, 0),
                      ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
                      ((0, 0, 1), (0, 1, 0), (1, 0, 0)), tau=0),
         (("d^2 = 0", True, "ok"),
          ("iota chain map", False, "iota d != d iota"),
          ("iota^2 ~ id", True, "iota^2 = id exactly"),
          ("single U-inverted tower", True,
           "deep homology ranks: 1 in tau-parity, 0 off-parity"))),
        (_twisted(),
         (("d^2 = 0", True, "ok"),
          ("iota chain map", True, "ok"),
          ("iota^2 ~ id", True, "homotopy found"),
          ("single U-inverted tower", True,
           "deep homology ranks: 1 in tau-parity, 0 off-parity"))),
        # the iota of test_validate_rejects_iota_squared_not_homotopic_to_id
        (iota_complex(c.labels, c.gradings, [[0, 0, [1]], [0, 0, [1]], [0, 0, 0]],
                      [[1, 0, 0], [1, 0, 0], [0, 0, 1]], tau=c.tau),
         (("d^2 = 0", True, "ok"),
          ("iota chain map", True, "ok"),
          ("iota^2 ~ id", False, "no homotopy H with dH + Hd = iota^2 + id"),
          ("single U-inverted tower", True,
           "deep homology ranks: 1 in tau-parity, 0 off-parity"))),
        # two generators at grading 0 and no differential: two towers
        (iota_complex(("x", "y"), (0, 0), ((0, 0), (0, 0)), ((1, 0), (0, 1))),
         (("d^2 = 0", True, "ok"),
          ("iota chain map", True, "ok"),
          ("iota^2 ~ id", True, "iota^2 = id exactly"),
          ("single U-inverted tower", False,
           "deep homology ranks: 2 in tau-parity, 0 off-parity"))),
    ]


def test_validate_pins_every_check_of_each_outcome():
    for c, checks in _one_complex_per_validate_outcome():
        assert validate(c).checks == checks


def test_correction_terms_builds_no_mapping_cone(monkeypatch):
    # the exact pass eliminates the cone's columns without a model of the
    # cone; the reference scans build one (and one of C), so they run
    # before the patch
    built = _involutive_complexes() + [_twisted()]
    want = [truncated_correction_terms(c, default_truncation(c.gradings)) for c in built]

    def refuse(*args):
        raise AssertionError("_cone_scans ran")

    monkeypatch.setattr(complexes, "_cone_scans", refuse)
    _no_model(monkeypatch)
    assert [correction_terms(c) for c in built] == want


def test_deep_ranks_and_wide_local_maps_cost_no_span(monkeypatch):
    # Y(1) has 3 generators, and Y(100000) 3 generators spread over about
    # 2 * 10^5 gradings: neither a truncated model nor a table the size of
    # that spread or of the depth is built
    _no_model(monkeypatch)
    ranks = homology_ranks(class_complex(Y(1)), [-200000, -10**12])
    assert ranks == {-200000: 1, -10**12: 1}
    c = class_complex(Y(100000))
    tracemalloc.start()
    try:
        assert locally_equivalent(c, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_homotopy_solve_builds_no_truncated_model(monkeypatch):
    c = _twisted()
    mul, add = complexes.mat_mul, mat_add
    square_plus_id = add(mul(c.iota, c.iota), tuple(1 << j for j in range(c.n)))
    _no_model(monkeypatch)
    H = complexes.solve_homotopy(c, c, square_plus_id)
    assert H is not None
    assert add(mul(c.diff, H), mul(H, c.diff)) == square_plus_id


def _mask_from_gradings(a, b, degree, N):
    """Bit i of column j set iff (g_i - g_j - degree)/2, with g_i a grading
    of b and g_j one of a, is an integer e with 0 <= e < N."""
    def keep(gi, gj):
        e = Fraction(gi - gj - degree, 2)
        return e.denominator == 1 and 0 <= e < N

    return tuple(sum(1 << i for i, gi in enumerate(b.gradings) if keep(gi, gj))
                 for gj in a.gradings)


def test_below_masks_match_the_gradings():
    # the masks of the truncated homotopy systems are read off
    # Expanded.present, and those of the exact local-map search (F and H,
    # by rows, with no N) off each side's offsets
    singles = _involutive_complexes()
    rng = random.Random(20170624)
    pairs = [(c, c) for c in singles]
    for _ in range(4):
        a, b = rng.sample(singles[:3], 2)
        pairs += [(a, dual(a)), (dual(a), a), (a, tensor(a, b)), (tensor(a, b), b)]
    for a, b in pairs:
        oa = complexes._offsets(a.gradings, a.tau)
        for N in sorted({1, 2, default_truncation(a.gradings)}):
            eb = complexes.Expanded(b.gradings, b.diff, N, a.tau)
            for degree in (-2, -1, 0, 1):
                assert below(eb, oa, degree) == _mask_from_gradings(a, b, degree, N)
        shift = int(b.tau - a.tau)
        for degree in (0, 1):
            rows = [a._at_or_below(t + shift - degree) for t in b.offsets]
            assert (tuple(complexes._spread(rows, a.n, 1))
                    == _mask_from_gradings(a, b, degree, 10 ** 6))


def test_homotopy_onto_another_coset_is_refused():
    a = trivial_complex()
    b = iota_complex(["y"], ["1/2"], [[0]], [[1]], tau="1/2")
    with pytest.raises(ValueError, match="grading 1/2"):
        complexes.solve_homotopy(a, b, (0,))


def test_homotopy_of_a_non_complex_is_refused_with_a_type_error():
    c = trivial_complex()
    for a, b in (("x", c), (c, "x")):
        with pytest.raises(TypeError, match=r"^not a complex: 'x'$"):
            complexes.solve_homotopy(a, b, ())


def _homotopy_over_budget():
    """x_k at offset 0 and y_k at offset 1, k < 80, with d(y_k) = x_k,
    iota(x_0) = x_1, iota(y_0) = y_1 and iota the identity elsewhere: a
    chain map with iota^2 != id and no tower, whose homotopy system has an
    unknown H[y_i, x_j] for each of 80 x 80 pairs."""
    n = 80
    diff = (0,) * n + tuple(1 << k for k in range(n))
    iota = (1 << 1, *(1 << j for j in range(1, n)), 1 << n + 1,
            *(1 << j for j in range(n + 1, 2 * n)))
    return hfi.IotaComplex(tuple(f"x{k}" for k in range(n)) + tuple(f"y{k}" for k in range(n)),
                           (0,) * n + (1,) * n, diff, iota, 0)


def test_homotopy_above_the_budget_is_refused_before_any_column(monkeypatch):
    c = _homotopy_over_budget()
    mul, add = complexes.mat_mul, mat_add
    square_plus_id = add(mul(c.iota, c.iota), tuple(1 << j for j in range(c.n)))
    assert any(square_plus_id)

    def no_system(*args, **kw):
        raise AssertionError("a homotopy column was built or solved")

    monkeypatch.setattr(complexes, "_kron_columns", no_system)
    monkeypatch.setattr(complexes, "_solve", no_system)
    for call in (lambda: complexes.solve_homotopy(c, c, square_plus_id),
                 lambda: validate(c), lambda: correction_terms(c)):
        with pytest.raises(hfi.SearchSizeError,
                           match=r"^homotopy system too large: 6400 H-vars \(limit 6000\)$"):
            call()
    # the budget is read at call time
    monkeypatch.undo()
    monkeypatch.setattr(complexes, "MAX_LOCAL_MAP_UNKNOWNS", 6400)
    assert complexes.solve_homotopy(c, c, square_plus_id) is not None


def test_homotopy_rhs_of_the_wrong_shape_is_refused():
    # rhs is a map a -> b: one column per generator of a, rows below b.n
    c = std(2, 0)
    assert c.n == 3 and complexes.solve_homotopy(c, c, (0, 0, 0)) == (0, 0, 0)
    for rhs in ((0,), (0,) * 4, (0, 0b1000, 0)):
        with pytest.raises(ValueError, match="not a map from the 3 generators of a"):
            complexes.solve_homotopy(c, c, rhs)


def _homotopy_with_a_u_term():
    """Complexes a, b such that the one homotopy H: a -> b with
    dH + Hd = w + U z has a term U z in its boundary.

    a is x (grading 0) with d = 0; b is y (1), w (0), z (2) with
    d(y) = w + U z.  H(x) = y gives d(H(x)) = w + U z.
    """
    a = iota_complex(("x",), (0,), [[0]], [[1]])
    b = iota_complex(("y", "w", "z"), (1, 0, 2), [[0, 0, 0], [1, 0, 0], [[1], 0, 0]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return a, b


def test_homotopy_equations_count_every_power_of_u():
    # the U z term of dH, in L.X, and its transpose, in X.R, is an equation
    # like every other: rhs w alone is infeasible, w + U z is solved by H
    a, b = _homotopy_with_a_u_term()
    assert complexes.solve_homotopy(a, b, (0b010,)) is None
    assert complexes.solve_homotopy(a, b, (0b110,)) == (0b001,)
    da, db = dual(a), dual(b)
    # dual(b): y^ (-1), w^ (0), z^ (-2) with d(w^) = y^, d(z^) = U y^, so
    # H(y^) = x^ gives H(d(w^)) = x^ and H(d(z^)) = U x^
    assert complexes.solve_homotopy(db, da, (0, 1, 0)) is None
    assert complexes.solve_homotopy(db, da, (0, 1, 1)) == (1, 0, 0)


@pytest.mark.parametrize("text", ["Y(1) - Y(2) + I[-2]", "5*Y(1) - Y(2) + I[-2]",
                                  "Y(2) + I[1/2]"])
def test_iota_complex_reads_back_what_complex_to_json_writes(text):
    # the dense row-major maps of the JSON are iota_complex's one layout
    c = class_complex(evaluate_text(text).total)
    j = complexes.complex_to_json(c)
    assert iota_complex(j["labels"], j["gradings"], j["differential"], j["iota"],
                        tau=j["tau"]) == c


def test_negative_exponent_is_refused():
    # and every other malformed raw map: a ValueError that names the entry,
    # never an IndexError or a shift error from reading past the map
    identity = ((1, 0), (0, 1))
    for diff, message in (
            ([[[], []], [[-1], []]], r"\(row 1, exponent -1\) in column x"),
            ([[[], []], [[]]], "row 1 has 1 entries, expected 2"),
            ([[[], []]], "map has 1 rows, expected 2"),
            ([[[], [-1]], [[], []]], r"\(row 0, exponent -1\) in column y")):
        with pytest.raises(ValueError, match=message):
            iota_complex(("x", "y"), (1, 0), diff, identity)
    # an entry is an int or an iterable of int exponents; a bool, a float,
    # a string or None is neither, and used to raise TypeError or construct
    for entry in ("1", None, 1.0, True, [0.0], [True], (0, "0"), b"", ""):
        with pytest.raises(ValueError, match=r"map row 0, column x: entry .* is not an int"):
            iota_complex(("x",), (0,), [[0]], [[entry]])
    with pytest.raises(ValueError, match=r"map row 1, column x: entry 1.0"):
        iota_complex(("x", "y"), (1, 0), [[[], []], [1.0, []]], identity)
    # the empty entry and exponents from any iterable still read
    assert iota_complex(("x",), (0,), [[0]], [[range(1)]]).iota == (1,)
    assert iota_complex(("x",), (0,), [[[]]], [[(0,)]]).diff == (0,)


def test_repeated_terms_cancel_in_pairs_in_both_entry_forms():
    # an int entry counts by parity and an exponent list term by term, so
    # the same GF(2) map reads the same way in either form
    for twice, once in (([[2]], [[1]]), ([[[0, 0]]], [[[0]]]), ([[[0, 0]]], [[1]])):
        assert iota_complex(("x",), (0,), [[0]], twice).iota == (0,)
        assert iota_complex(("x",), (0,), [[0]], once).iota == (1,)
    assert iota_complex(("x",), (0,), [[0]], [[[0, 0, 0]]]).iota == (1,)
    # a term is checked before it cancels: the first failure still names it
    identity = ((1, 0), (0, 1))
    for diff, message in (
            ([[[], []], [[-1, -1], []]], r"\(row 1, exponent -1\) in column x"),
            ([[[], [0, 0]], [[], []]], r"entry \(x, y\) exponent 0: grading 1 - 0")):
        with pytest.raises(ValueError, match=message):
            iota_complex(("x", "y"), (1, 0), diff, identity)


def test_local_map_search_refuses_other_tower_cosets():
    # taus that differ by an odd integer or by a non-integer put the towers
    # in different cosets of 2Z, where no grading-preserving map joins them
    a = trivial_complex(0)
    for tau in (1, Fraction(1, 2)):
        b = trivial_complex(tau)
        for search in (complexes.find_local_map, complexes.locally_equivalent):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="tower cosets differ"):
                    search(x, y)
    # an even difference is the same coset: the search runs, and a local map
    # exists only towards the larger d, as x -> U x'
    b = trivial_complex(2)
    assert complexes.find_local_map(a, b).F == (1,)
    assert complexes.find_local_map(b, a) is None
    assert not complexes.locally_equivalent(a, b)


def test_an_empty_or_ragged_complex_is_refused():
    with pytest.raises(ValueError, match="at least one generator"):
        iota_complex((), (), [], [])
    with pytest.raises(ValueError, match="at least one generator"):
        complexes.graded_complex((), (), (), (), 0)
    # two generators with one grading, or with one involution column
    with pytest.raises(ValueError, match="one grading for each"):
        iota_complex(("x", "y"), (0,), [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    for gradings, iota in (((0,), (1, 2)), ((0, 0), (1,))):
        with pytest.raises(ValueError, match="for each a grading"):
            complexes.graded_complex(("x", "y"), gradings, (0, 0), iota, 0)


def test_the_raw_constructor_refuses_what_the_kernels_cannot_read():
    # a term at row 1 of one generator used to construct, and then crashed
    # validate, the correction terms, homology_ranks and dual with IndexError
    for args, message in (
            ((("x",), (0,), (2,), (1,), 0), "differential column has a bit outside"),
            ((("x",), (0,), (0,), (-1,), 0), "involution column has a bit outside"),
            (((), (), (), (), 0), "at least one generator"),
            ((("x", "y"), (0, 0), (0,), (1, 2), 0), "at least one generator"),
            ((("x",), (0,), (0,), (1,), 0.0), "tau 0.0 is not an int or a Fraction"),
            ((("x",), (0,), (0,), (1,), True), "tau True is not an int or a Fraction")):
        with pytest.raises(ValueError, match=message):
            hfi.IotaComplex(*args)
    # the constructor is the one that tensor and dual build through
    c = hfi.IotaComplex(("x",), (0,), (0,), (1,), Fraction(1, 2))
    assert dual(c).tau == Fraction(-1, 2) and tensor(c, c).tau == 1


def test_a_complex_with_no_tower_is_refused_with_the_failed_check():
    # d x = y, so d^2 = 0 and iota = id, but there is no tower
    c = hfi.IotaComplex(("x", "y"), (1, 0), (2, 0), (1, 2), 0)
    assert [name for name, _ in validate(c).failed()] == ["single U-inverted tower"]
    for call in (hfi.complex_correction_terms,
                 lambda c: find_local_map(c, trivial_complex()),
                 lambda c: find_local_map(trivial_complex(), c),
                 lambda c: locally_equivalent(c, trivial_complex())):
        with pytest.raises(ValueError, match="single U-inverted tower"):
            call(c)


@st.composite
def raw_complexes(draw):
    """An IotaComplex of 1..6 generators with int offsets in -3..3 and
    random terms of the right degrees: bit i of diff[j] only where
    off_i - off_j + 1 is even and >= 0, of iota[j] where off_i - off_j is.
    Most fail some validate check."""
    n = draw(st.integers(1, 6))
    off = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))

    def column(j, degree):
        rows = [i for i in range(n)
                if (off[i] - off[j] - degree) % 2 == 0 and off[i] - off[j] >= degree]
        return sum(1 << i for i in draw(st.lists(st.sampled_from(rows), unique=True))
                   ) if rows else 0

    diff = tuple(column(j, -1) for j in range(n))
    iota = tuple(column(j, 0) for j in range(n))
    tau = draw(st.sampled_from((0, -2, Fraction(1, 2))))
    return hfi.IotaComplex(tuple(f"x{i}" for i in range(n)), tuple(off), diff, iota, tau)


@seed(20170636)
@settings(max_examples=40, deadline=None)
@given(raw_complexes(), raw_complexes(), st.data())
def test_public_entry_points_answer_or_refuse_any_raw_complex(a, b, data):
    # each returns, or raises ValueError or TypeError: never IndexError,
    # RuntimeError or another untyped crash
    rhs = tuple(data.draw(st.lists(st.integers(0, 2 ** b.n - 1),
                                   min_size=a.n, max_size=a.n)))
    for call in (lambda: validate(a), lambda: correction_terms(a),
                 lambda: homology_ranks(a, [a.tau, a.tau - 1, a.tau + 2]),
                 lambda: tensor(a, b), lambda: dual(a),
                 lambda: find_local_map(a, b), lambda: locally_equivalent(a, b),
                 lambda: complexes.solve_homotopy(a, b, rhs)):
        try:
            call()
        except (ValueError, TypeError):
            pass


def test_zero_denominator_grading_or_tau_is_a_value_error():
    for gradings, tau in ((["1/0"], None), (["0"], "1/0")):
        with pytest.raises(ValueError, match="'1/0'"):
            iota_complex(("x",), gradings, [[0]], [[1]], tau=tau)
    with pytest.raises(ValueError, match="'1/0'"):
        homology_ranks(trivial_complex(), ["1/0"])


def test_a_grading_or_tau_that_is_not_exact_is_refused():
    # a float grading would give float correction terms, and a string has
    # no exact value to read
    for g in (0.5, "1/2"):
        with pytest.raises(ValueError, match=f"grading {g!r} is not an int or a Fraction"):
            trivial_complex(g)
    with pytest.raises(ValueError, match="grading 0.0 is not an int"):
        complexes.graded_complex(("x",), (0,), (0,), (1,), 0.0)
    half = Fraction(1, 2)
    assert correction_terms(trivial_complex(half)) == (half, half, half)


def test_a_bool_grading_or_tau_is_refused():
    with pytest.raises(ValueError, match="grading True is not an int or a Fraction"):
        complexes.graded_complex(("x",), (True,), (0,), (1,), 0)
    with pytest.raises(ValueError, match="grading False is not an int or a Fraction"):
        complexes.graded_complex(("x",), (0,), (0,), (1,), False)
    with pytest.raises(ValueError, match="inexact value True"):
        iota_complex(("x",), (True,), [[0]], [[1]])


def test_iota_complex_keeps_integral_gradings_as_ints():
    # gradings keep their exact type: read from raw input, an integral
    # grading or tau is an int, as in trivial_complex, and so are the
    # correction terms; a non-integral one stays a Fraction
    c = iota_complex(("x",), (0,), [[0]], [[1]])
    assert c == trivial_complex() and type(c.tau) is int
    assert [type(t) for t in correction_terms(c)] == [int] * 3
    for g, tau in ((Fraction(4, 2), None), ("2", "0"), (2, Fraction(0))):
        c = iota_complex(("x",), (g,), [[0]], [[1]], tau=tau)
        assert [type(x) for x in (c.tau, *c.gradings)] == [int, int]
    c = iota_complex(("x", "y"), ("1/2", "3/2"), [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    assert c.tau == Fraction(1, 2) and type(c.tau) is Fraction
    assert [type(g) for g in c.gradings] == [Fraction] * 2


def test_grading_off_the_tau_coset_is_refused(monkeypatch):
    # A scan or probe on such a complex looks for a grading in tau + 2Z at or
    # below the generators and never finds one, so the check must come first.
    def no_scan(*args):
        raise AssertionError("a scan or probe ran on an off-coset complex")

    monkeypatch.setattr(complexes, "_d_scan", no_scan)
    monkeypatch.setattr(complexes, "_cone_scans", no_scan)
    monkeypatch.setattr(complexes.Expanded, "probe", no_scan)
    # Such a complex is refused where it is built.
    with pytest.raises(ValueError, match="grading 1/2 is not in 0 \\+ Z"):
        iota_complex(["a"], ["1/2"], [[0]], [[1]], tau=0)
    with pytest.raises(ValueError, match="grading 1/2 is not in 0 \\+ Z"):
        iota_complex(["a", "b"], [0, "1/2"], [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="grading 1/2 is not in 0 \\+ Z"):
        complexes.graded_complex(["a", "b"], [0, Fraction(1, 2)], [0, 0], [1, 2], 0)


# ---------------------------------------------------------------------------
# the map layer: graded bit columns on fixed gradings
#
# A map of degree deg between complexes with the gradings G has bit i in
# column j only where U^e x_i, e = (G[i] - G[j] - deg)/2 >= 0, has that
# degree.  Maps are drawn by masking random columns with those entries.

G = (4, 2, 3, 0, 2, 1)
SIZE = len(G)
IDENTITY = tuple(1 << j for j in range(SIZE))
ZERO = (0,) * SIZE


def _entries(degree, below=99):
    """The mask of the entries U^e x_i, 0 <= e < below, of a degree-``degree``
    map on G."""
    return tuple(sum(1 << i for i in range(SIZE)
                     if (G[i] - G[j] - degree) % 2 == 0
                     and 0 <= G[i] - G[j] - degree < 2 * below)
                 for j in range(SIZE))


def _maps(degree):
    col = st.integers(0, 2 ** SIZE - 1)
    return st.tuples(*[col] * SIZE).map(
        lambda cols: tuple(c & m for c, m in zip(cols, _entries(degree))))


def _pairs(m, degree):
    return expand_map(m, G, G, degree)


@seed(20170612)
@settings(max_examples=50, deadline=None)
@given(_maps(-1), _maps(-1))
def test_map_addition_commutes(x, y):
    assert mat_add(x, y) == mat_add(y, x)


@seed(20170613)
@settings(max_examples=50, deadline=None)
@given(_maps(0))
def test_map_addition_cancels(x):
    add = mat_add
    assert add(x, x) == ZERO
    assert add(x, ZERO) == x


@seed(20170614)
@settings(max_examples=100, deadline=None)
@given(_maps(0), _maps(-1), _maps(1))
def test_map_composition_convolves_exponents(x, y, z):
    # the exponents of a bit-map product, read off the gradings, are those of
    # the (row, exponent) composition of the expanded factors, GF(2)
    # cancellations included
    mul = complexes.mat_mul
    assert _pairs(mul(x, y), -1) == pair_mul(_pairs(x, 0), _pairs(y, -1))
    assert _pairs(mul(y, z), 0) == pair_mul(_pairs(y, -1), _pairs(z, 1))
    assert _pairs(mul(x, x), 0) == pair_mul(_pairs(x, 0), _pairs(x, 0))


@seed(20170615)
@settings(max_examples=50, deadline=None)
@given(_maps(0), _maps(-1), _maps(1))
def test_map_composition_is_associative(x, y, z):
    mul = complexes.mat_mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@seed(20170616)
@settings(max_examples=50, deadline=None)
@given(_maps(-1), _maps(0), _maps(0))
def test_map_composition_distributes(x, y, z):
    mul, add = complexes.mat_mul, mat_add
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(add(y, z), x) == add(mul(y, x), mul(z, x))


@seed(20170617)
@settings(max_examples=50, deadline=None)
@given(_maps(1))
def test_zero_and_identity_maps(x):
    assert complexes.mat_mul(IDENTITY, IDENTITY) == IDENTITY
    assert complexes.mat_mul(x, ZERO) == ZERO
    assert complexes.mat_mul(ZERO, x) == ZERO


@seed(20170618)
@settings(max_examples=50, deadline=None)
@given(_maps(-1))
def test_identity_map_is_unit(x):
    assert complexes.mat_mul(x, IDENTITY) == x
    assert complexes.mat_mul(IDENTITY, x) == x


@seed(20170619)
@settings(max_examples=50, deadline=None)
@given(_maps(0), _maps(-1), st.integers(0, 4))
def test_truncation_commutes_with_composition(x, y, n):
    def trunc(m, degree):
        """Drop the entries U^e x_i with e >= n."""
        return tuple(c & keep for c, keep in zip(m, _entries(degree, below=n)))

    mul, add = complexes.mat_mul, mat_add
    assert trunc(mul(trunc(x, 0), trunc(y, -1)), -1) == trunc(mul(x, y), -1)
    assert trunc(add(x, x), 0) == add(trunc(x, 0), trunc(x, 0))
    assert trunc(add(y, mul(x, y)), -1) == add(trunc(y, -1), trunc(mul(x, y), -1))


def test_local_map_witness_is_an_iota_chain_map():
    a, b = tensor(std(2, 0), std(0, -2)), std(2, 0)
    w = find_local_map(a, b)
    assert w is not None
    mul, add = complexes.mat_mul, mat_add
    zero = (0,) * a.n
    assert add(mul(b.diff, w.F), mul(w.F, a.diff)) == zero
    assert (add(mul(b.iota, w.F), mul(w.F, a.iota))
            == add(mul(b.diff, w.H), mul(w.H, a.diff)))
    # F preserves gradings and H raises them by one: every bit is a term
    # U^e, e >= 0, of that degree
    for m, degree in ((w.F, 0), (w.H, 1)):
        for j, col in enumerate(expand_map(m, a.gradings, b.gradings, degree)):
            for i, e in col:
                assert e >= 0 and b.gradings[i] - 2 * e == a.gradings[j] + degree


def test_existence_solves_no_witness_and_a_witness_solves_once(monkeypatch):
    # locally_equivalent only decides feasibility; F and H are solved from
    # the witness's system on the first read, once for both
    a = std(4, 0, 2, 2)
    b = tensor(a, tensor(std(2, 0), dual(std(2, 0))))
    solve, calls = complexes._solve, []

    def counted(cols, rhs, unknowns):
        calls.append(rhs)
        return solve(cols, rhs, unknowns)

    monkeypatch.setattr(complexes, "_solve", counted)
    assert locally_equivalent(a, b) and locally_equivalent(b, a)
    w = find_local_map(a, b)
    assert calls == [] and repr(w) == "LocalMapWitness(5 -> 45 generators, unsolved)"
    F, H = w.F, w.H
    assert len(calls) == 1
    assert repr(w) == "LocalMapWitness(5 -> 45 generators, solved)"
    assert w.F is F and w.H is H and len(calls) == 1


def test_local_equivalence_eliminates_each_tower_once(monkeypatch):
    # each complex keeps its tower representative: one locally_equivalent
    # builds two Echelons per complex, over its odd class's boundaries and
    # its even class's cycles, not two per complex and direction, and a
    # second call builds none
    a = std(4, 0, 2, 2)
    b = tensor(a, tensor(std(2, 0), dual(std(2, 0))))
    built = []

    class Counted(complexes.gf2.Echelon):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(complexes.gf2, "Echelon", Counted)
    assert locally_equivalent(a, b) and len(built) == 4
    assert locally_equivalent(a, b) and len(built) == 4
