"""From a Brieskorn sphere to its Y-basis class, step by step.

Walks the full pipeline for Sigma(5,8,13): build the negative-definite
plumbing tree, run the computation-sequence function tau, extract the
graded-root profile, reduce it to its monotone subroot, and decompose the
subroot in the Y-basis.  The pipeline itself needs no plumbing: it streams
the tau steps from a numerical semigroup and reads K^2 + s from Dedekind
sums, and the plumbing's Laufer sequence and tree elimination check both
here.
"""

from itertools import accumulate
from operator import sub

from hfi.brieskorn import (BrieskornParams, _compress_to_profile,
                           _k_squared_plus_s, _semigroup_deltas,
                           brieskorn_root, seifert_plumbing, tau_sequence)
from hfi.cterms import correction_terms
from hfi.localclass import d_invariant, mu_bar
from hfi.monotone import decompose, monotone_subroot
from hfi.plumbing import graph_to_text, is_negative_definite, k_squared

params = BrieskornParams(5, 8, 13)

# Step 1: the star-shaped plumbing tree.  One central vertex, one arm per
# singular fiber, weights from negative continued fractions.
graph, center = seifert_plumbing(params)
print("plumbing tree:")
print(graph_to_text(graph))
print("negative definite:", is_negative_definite(graph))
q = k_squared(graph) + graph.n
print("K^2 + s =", q)
# The pipeline reads K^2 + s from Dedekind sums of the Seifert invariants,
# without the plumbing; the tree elimination above is its cross-check.
print("K^2 + s from Dedekind sums =", _k_squared_plus_s(params))
assert _k_squared_plus_s(params) == q

# Step 2: the tau sequence.  tau(v) is the Euler characteristic of the v-th
# cycle in the generalized Laufer computation sequence; its local minima and
# the maxima between them are the combinatorial content of the graded root.
taus = tau_sequence(graph, center, 40)
print("\ntau(0..40):", taus)

# The pipeline itself streams the steps from the semigroup G generated by
# a2 a3, a1 a3 and a1 a2 (Can-Karakurt): with
# N0 = alpha - a1 a2 - a1 a3 - a2 a3,
# tau(n+1) - tau(n) = [n in G] - [N0 - n in G] for 0 <= n <= N0.
a1, a2, a3 = params.tuple
n0 = a1 * a2 * a3 - a1 * a2 - a1 * a3 - a2 * a3
laufer_n0 = tau_sequence(graph, center, n0 + 1)
assert list(accumulate(_semigroup_deltas(params, n0 + 1), initial=0)) == laufer_n0
print(f"semigroup steps give the Laufer tau(0..N0 + 1) for N0 = {n0}")

# Step 3: the graded-root profile.  tau value t sits at grading
# -2t + (K^2 + s)/4; leaves are the minima, angles the in-between maxima.
profile = brieskorn_root(params)
print("\nleaves:", profile.leaves)
print("angles:", profile.angles)

# The pipeline streams only the first half of the steps: tau(m) =
# tau(N0 + 1 - m) on 0..N0 + 1 and tau never falls after N0, so the extrema
# of tau(0..ceil(N0/2)) and their mirror image are all of them.  The Laufer
# engine on the plumbing tree, which knows nothing of the semigroup, shows
# the same symmetry.
assert laufer_n0 == laufer_n0[::-1]
print(f"Laufer tau(m) = tau(N0 + 1 - m) for N0 = {n0}; the pipeline streams "
      f"ceil(N0/2) = {(n0 + 1) // 2} of the alpha + 1 = {a1 * a2 * a3 + 1} steps")

# Cross-engine check at the stopping point: tau is nondecreasing from
# n = alpha on, so alpha + 1 Laufer steps on the plumbing tree give the
# same leaves and angles as the semigroup pipeline.
steps = params.a1 * params.a2 * params.a3 + 1
laufer = tau_sequence(graph, center, steps)
leaf_taus, angle_taus = _compress_to_profile(map(sub, laufer[1:], laufer))
assert [-2 * t + q / 4 for t in leaf_taus] == list(profile.leaves)
assert [-2 * t + q / 4 for t in angle_taus] == list(profile.angles)
print(f"Laufer sequence over alpha + 1 = {steps} steps agrees")

# Step 4: monotone subroot and Y-basis class.
root = monotone_subroot(profile)
cls = decompose(root)
print("\nmonotone subroot:", root)
print("class:           ", cls)
print("d, d_bar, d_under:", correction_terms(cls))
print("mu_bar:          ", mu_bar(cls))
assert d_invariant(cls) == 4
