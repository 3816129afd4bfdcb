"""Symmetric graded-root profiles, their standard complexes, and exact gradings."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from dense_reference import is_graded_root_profile, mirror_merge
from hfi import cterms
from hfi.brieskorn import BrieskornParams, brieskorn_root, seifert_plumbing
from hfi.complexes import (complex_to_json, correction_terms, homology_ranks,
                           validate)
from hfi.localclass import I
from hfi.monotone import M, MonotoneRoot, decompose, monotone_subroot
from hfi.plumbing import chi, minimal_cycle
from hfi.report import class_complex, evaluate_text
from hfi.roots import (SymmetricRootProfile, profile_from_text,
                       profile_to_text, standard_complex)

# HF-minus gradings of the reference root, +2 internal normalization applied
FIG_LEAVES = (-6, -2, 0, 0, -2, -6)
FIG_ANGLES = (-8, -4, -4, -4, -8)


def fig_profile():
    return SymmetricRootProfile(FIG_LEAVES, FIG_ANGLES)


def test_valid_profile_passes():
    assert fig_profile().n == 6


def test_angle_above_leaf_fails():
    with pytest.raises(ValueError, match="angle 1 at 2 exceeds an adjacent leaf"):
        SymmetricRootProfile((0, 0), (2,))
    # both angles sit above the central leaf, so no graded root has them
    with pytest.raises(ValueError, match="angle 1 at -2 exceeds an adjacent leaf"):
        SymmetricRootProfile((0, -4, 0), (-2, -2))


def test_mixed_coset_fails():
    # leaves (0, 1) are also not symmetric, which is checked first
    with pytest.raises(ValueError):
        SymmetricRootProfile((0, 1), (-2,))
    with pytest.raises(ValueError, match="grading 1 not in 0 \\+ 2Z"):
        SymmetricRootProfile((0, 1, 0), (-2, -2))
    with pytest.raises(ValueError, match="grading -1 not in 0 \\+ 2Z"):
        SymmetricRootProfile((0, 0), (-1,))


def test_asymmetric_profile_rejected():
    with pytest.raises(ValueError):
        SymmetricRootProfile((0, -2), (-4,))


def test_single_leaf_profile_is_a_shifted_tower():
    p = SymmetricRootProfile((-2,), ())
    assert correction_terms(standard_complex(p)) == (-2, -2, -2)


@st.composite
def perturbed_profiles(draw):
    """Small symmetric profiles on an int or half-integral base grading.

    Leaves differ from the base by any integer, so some leave its coset of
    2Z; each angle lies between 4 below and 1 above its lower neighbour, so
    some are odd and some rise above an adjacent leaf.
    """
    n = draw(st.integers(1, 7))
    base = draw(st.sampled_from((0, 1, Fraction(1, 2))))
    half = [base + draw(st.integers(-3, 3)) for _ in range((n + 1) // 2)]
    leaves = half + half[:n // 2][::-1]
    inner = [min(leaves[i], leaves[i + 1]) + draw(st.integers(-4, 1))
             for i in range(n // 2)]
    return leaves, inner + inner[:(n - 1) // 2][::-1]


@seed(20170704)
@settings(max_examples=300, deadline=None)
@given(perturbed_profiles())
def test_profile_constructor_raises_exactly_on_invalid_profiles(profile):
    leaves, angles = profile
    if is_graded_root_profile(leaves, angles):
        p = SymmetricRootProfile(leaves, angles)
        assert (p.leaves, p.angles) == (tuple(leaves), tuple(angles))
    else:
        with pytest.raises(ValueError, match="^invalid profile: "):
            SymmetricRootProfile(leaves, angles)


def test_inexact_profile_gradings_are_refused():
    with pytest.raises(ValueError, match="0.5 is not an int or a Fraction"):
        standard_complex(SymmetricRootProfile((0.5,), ()))


def test_profile_constructor_refuses_float_gradings():
    # a float anywhere, also in the right half where it equals its int mirror
    for leaves, angles, bad in (((0.5,), (), 0.5),
                                ((-2.0, 0, -2), (-2, -2), -2.0),
                                ((-2, 0, -2.0), (-2, -2), -2.0),
                                ((0, 0), (-2.0,), -2.0),
                                ((-2, 0, -2), (-2, -2.0), -2.0)):
        with pytest.raises(ValueError, match=f"grading {bad} is not an int or "
                                             "a Fraction"):
            SymmetricRootProfile(leaves, angles)
    p = SymmetricRootProfile((-2, Fraction(0), -2), (Fraction(-2), -2))
    assert p.leaves == (-2, 0, -2) and p.angles == (-2, -2)


def test_profile_constructor_refuses_bool_gradings():
    # isinstance(True, int) holds, so an int check alone lets True through
    for leaves, angles in (((True,), ()), ((-2, 0, -2), (True, True))):
        with pytest.raises(ValueError, match="grading True is not an int"):
            SymmetricRootProfile(leaves, angles)


def test_reference_profile_standard_complex():
    c = standard_complex(fig_profile())
    assert c.n == 11
    assert validate(c).ok
    ranks = homology_ranks(c, [0, -1, -2, -3, -4, -5, -6])
    # two leaves at 0; four branches alive at -2; the central 4-fold merge
    # collapses them to one at -4; the outer leaves reappear at -6
    assert ranks[Fraction(0)] == 2
    assert ranks[Fraction(-1)] == 0
    assert ranks[Fraction(-2)] == 4
    assert ranks[Fraction(-4)] == 1
    assert ranks[Fraction(-6)] == 3


def test_mirror_merge_values():
    p = fig_profile()
    assert mirror_merge(p, 1) == -8
    assert mirror_merge(p, 2) == -4
    assert mirror_merge(p, 3) == -4


def test_profile_text_round_trip():
    p = fig_profile()
    q = profile_from_text(profile_to_text(p))
    assert tuple(q.leaves) == tuple(p.leaves)
    assert tuple(q.angles) == tuple(p.angles)


def test_profile_text_fractions_and_comments():
    text = """
    # a shifted example
    coset: 1/2
    leaves: 1/2 -3/2 1/2
    angles: -3/2 -3/2
    """
    p = profile_from_text(text)
    assert p.leaves == (Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2))


def test_standard_complex_homology_matches_tree_rank_function():
    # at grading g the tree has one branch per leaf above g, minus one per
    # merge above g (each angle joins exactly two adjacent branches)
    p = fig_profile()
    c = standard_complex(p)
    top = max(p.leaves)
    window = [top - k for k in range(0, 12)]
    ranks = homology_ranks(c, window)
    coset = p.leaves[0] % 2
    for g in window:
        if g % 2 != coset:
            assert ranks[g] == 0
            continue
        alive = sum(1 for v in p.leaves if v >= g)
        merged = sum(1 for a in p.angles if a >= g)
        assert ranks[g] == max(alive - merged, 1 if g <= min(p.angles) else 0)


# ---------------------------------------------------------------------------
# exact gradings: kept in the type they arrive in, never a float


def _floats(obj) -> list:
    """Every float inside obj, walking tuples, lists, dicts and dataclasses."""
    if isinstance(obj, float):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    elif not isinstance(obj, (list, tuple)):
        return []
    return [x for item in obj for x in _floats(item)]


def test_int_gradings_stay_ints_and_no_float_appears():
    p = brieskorn_root(BrieskornParams(2, 7, 15))
    root = monotone_subroot(p)
    c = standard_complex(p)
    assert all(type(g) is int for g in p.leaves + p.angles)
    assert all(type(x) is int for pair in root.params for x in pair)
    assert all(type(g) is int for g in c.gradings + (c.tau,))
    terms = correction_terms(c)
    assert all(type(t) is int for t in terms)
    cls = decompose(root)
    oracle = class_complex(cls)
    report = evaluate_text("Sigma(2,7,15) + Y(2) - Y(1) + I[2]", oracle=True)
    values = [p, root, cls, c, terms, cterms.correction_terms(cls),
              correction_terms(oracle), complex_to_json(c), complex_to_json(oracle),
              report, report.to_json()]
    assert _floats(values) == []
    # an integral shift starts the oracle complex from an int tower, so
    # every tensor grading is an int; a half-integral one stays a Fraction
    assert all(type(g) is int for g in oracle.gradings + (oracle.tau,))
    half = class_complex(cls + I(Fraction(1, 2)))
    assert all(type(g) is Fraction for g in half.gradings + (half.tau,))


def test_profiles_and_roots_from_ints_fractions_and_lists_are_equal():
    fractions = (tuple(map(Fraction, FIG_LEAVES)), tuple(map(Fraction, FIG_ANGLES)))
    profiles = [SymmetricRootProfile(FIG_LEAVES, FIG_ANGLES),
                SymmetricRootProfile(*fractions),
                SymmetricRootProfile(list(FIG_LEAVES), list(FIG_ANGLES))]
    roots = [M(4, 0, 2, 2), M((Fraction(4), Fraction(0)), (Fraction(2), Fraction(2))),
             MonotoneRoot([[4, 0], [2, 2]])]
    for same in (profiles, roots, [monotone_subroot(p) for p in profiles]):
        assert all(x == same[0] for x in same)
        assert len({hash(x) for x in same}) == 1


def test_chi_is_an_int():
    g, _ = seifert_plumbing(BrieskornParams(2, 3, 5))
    x = minimal_cycle(g)
    assert type(chi(g, x)) is int and chi(g, x) == 1
    assert type(chi(g, [0] * g.n)) is int
