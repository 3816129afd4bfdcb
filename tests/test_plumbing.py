"""Plumbing trees: definiteness, rationality, almost-rationality, file format."""

import re
from fractions import Fraction

import pytest

from dense_reference import (intersection_form, leading_minor_dets,
                             rebuild_is_almost_rational)
from hfi.brieskorn import BrieskornParams, seifert_plumbing
from hfi.plumbing import (ARVerdict, PlumbingGraph, canonical_K, chi,
                          graph_from_text, graph_to_text, is_almost_rational,
                          is_negative_definite, is_rational, k_squared,
                          minimal_cycle)

# nodes a and b with legs of weight -2, -2, -2 and -2, -2, -3, joined
# through the chain m0, m1 of weight -3: definite, not almost rational
NOT_ALMOST_RATIONAL = """\
vertex a -2
vertex b -2
vertex a0 -2
vertex a1 -2
vertex a2 -2
vertex b0 -2
vertex b1 -2
vertex b2 -3
vertex m0 -3
vertex m1 -3
edge a a0
edge a a1
edge a a2
edge b b0
edge b b1
edge b b2
edge a m0
edge m0 m1
edge m1 b
"""


def e8_graph():
    # the -2 chain of length 7 with one extra leg at the fifth vertex
    verts = tuple((str(i), -2) for i in range(1, 9))
    edges = tuple((str(i), str(i + 1)) for i in range(1, 7)) + (("5", "8"),)
    return PlumbingGraph(verts, edges)


def test_tree_validation():
    with pytest.raises(ValueError):
        PlumbingGraph((("a", -2), ("a", -3)), ())  # duplicate id
    with pytest.raises(ValueError):
        PlumbingGraph((("a", -2), ("b", -2)), (("a", "c"),))  # unknown vertex
    with pytest.raises(ValueError):
        PlumbingGraph((("a", -2),), (("a", "a"),))  # self loop
    with pytest.raises(ValueError):
        PlumbingGraph((("a", -2), ("b", -2)), ())  # disconnected / wrong count
    # n - 1 edges that do not form a tree: only the connectivity check refuses
    with pytest.raises(ValueError, match="not connected"):
        PlumbingGraph((("a", -2), ("b", -2), ("c", -2), ("d", -2)),
                      (("a", "b"), ("b", "c"), ("c", "a")))  # triangle + isolated
    with pytest.raises(ValueError, match="not connected"):
        PlumbingGraph((("a", -2), ("b", -2), ("c", -2)),
                      (("a", "b"), ("b", "a")))  # doubled edge + isolated


def test_non_integer_weights_are_refused():
    for w in (-2.0, -2.5, Fraction(-2), "-2", None):
        with pytest.raises(ValueError, match=re.escape(
                f"vertex 'b' has weight {w!r}, which is not an int")):
            PlumbingGraph((("a", -2), ("b", w)), (("a", "b"),))
    assert PlumbingGraph((("a", -2), ("b", -3)), (("a", "b"),)).weights() == [-2, -3]


def test_bool_weights_are_refused():
    for w in (True, False):
        with pytest.raises(ValueError, match=f"vertex 'a' has weight {w!r}, which is not an int"):
            PlumbingGraph((("a", w),), ())


def test_intersection_form_and_K():
    g = PlumbingGraph((("a", -2), ("b", -3)), (("a", "b"),))
    assert intersection_form(g) == [[-2, 1], [1, -3]]
    assert canonical_K(g) == [0, 1]


def test_single_vertex():
    g = PlumbingGraph((("a", -1),), ())
    assert is_negative_definite(g)
    assert minimal_cycle(g) == [1]
    assert is_rational(g)
    assert k_squared(g) == -1


def test_not_negative_definite():
    g = PlumbingGraph((("a", 0),), ())
    assert not is_negative_definite(g)
    with pytest.raises(ValueError):
        minimal_cycle(g)
    with pytest.raises(ValueError):
        is_almost_rational(g)


def test_e8_frozen_values():
    g = e8_graph()
    m = intersection_form(g)
    assert is_negative_definite(g)
    # unimodular: determinant of the 8x8 form is 1
    assert leading_minor_dets(m)[-1] == 1
    assert canonical_K(g) == [0] * 8
    assert k_squared(g) == 0
    # coefficients of the highest root of the E8 lattice
    assert minimal_cycle(g) == [2, 3, 4, 5, 6, 4, 2, 3]
    assert chi(g, minimal_cycle(g)) == 1
    assert is_rational(g)
    assert is_almost_rational(g).verdict == "yes"


def test_minimal_cycle_is_antieffective():
    # every vertex pairs non-positively with the finished cycle
    g = e8_graph()
    z = minimal_cycle(g)
    m = intersection_form(g)
    for v in range(g.n):
        assert sum(m[v][j] * z[j] for j in range(g.n)) <= 0


def test_text_round_trip():
    g = e8_graph()
    assert graph_from_text(graph_to_text(g)) == g


def test_text_comments_and_errors():
    g = graph_from_text("""
    # a two-vertex chain
    vertex a -2
    vertex b -3   # trailing comment
    edge a b
    """)
    assert g.n == 2
    with pytest.raises(ValueError):
        graph_from_text("vertex a\n")
    with pytest.raises(ValueError):
        graph_from_text("polygon a b c\n")
    with pytest.raises(ValueError, match=r"^line 2: weight 'x' is not an integer$"):
        graph_from_text("vertex a -2\nvertex b x\n")


def test_sigma_2_3_7_is_almost_rational_at_the_centre():
    # the centre -1 with legs -2, -3, -7 is not rational; lowering the
    # centre once makes it rational
    g, center = seifert_plumbing(BrieskornParams(2, 3, 7))
    assert not is_rational(g)
    assert is_almost_rational(g).witness == (center, -2) == ("c", -2)
    assert str(is_almost_rational(g)) == "yes (vertex c at weight -2 is rational)"


def test_two_node_tree_is_not_almost_rational():
    g = graph_from_text(NOT_ALMOST_RATIONAL)
    assert is_negative_definite(g) and not is_rational(g)
    assert is_almost_rational(g) == ARVerdict("no", None)
    assert str(is_almost_rational(g)) == "no"


def test_witness_at_the_threshold_weight():
    # at v0 the threshold T = -(z_v1 + z_v2 + z_v3) is w - 1 = -3, so no
    # lowered weight above T is tried and the witness is T itself
    g = PlumbingGraph(
        (("v0", -2), ("v1", -2), ("v2", -1), ("v3", -4), ("v4", -3),
         ("v5", -2), ("v6", -6), ("v7", -5)),
        (("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v3", "v4"),
         ("v1", "v5"), ("v5", "v6"), ("v3", "v7")))
    assert not is_rational(g)
    verdict = is_almost_rational(g)
    assert verdict == rebuild_is_almost_rational(g) == ARVerdict("yes", ("v0", -3))
    assert str(verdict) == "yes (vertex v0 at weight -3 is rational)"
