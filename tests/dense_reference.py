"""Slow, direct reference implementations that the fast paths are checked against.

The production code eliminates the intersection form along the tree, takes
the monotone subroot with one running minimum and one sorted sweep,
compresses a tau stream run by run, and does GF(2) linear algebra on int
bitsets.  These are the definitions those replace: dense Fraction
elimination, the O(n^2) Pareto scan over ``mirror_merge``, the pair-deleting
restart loop that simplifies a weakly monotone root, the list-based extrema
scan, the reduced row-echelon form of a numpy uint8 array, the
composition of maps stored as columns of explicit (row, U-exponent) pairs,
and the max-min and min-max correction-term bounds row by row over fresh
prefix slices.
"""

from fractions import Fraction

import numpy as np

from hfi.cterms import p_q_sequences
from hfi.monotone import MonotoneRoot, WeaklyMonotoneRoot
from hfi.plumbing import PlumbingGraph, canonical_K, intersection_form
from hfi.roots import SymmetricRootProfile, mirror_merge


def leading_minor_dets(m: list[list[int]]) -> list[Fraction]:
    """Exact determinants of all leading principal minors (fraction-free)."""
    n = len(m)
    dets = []
    for k in range(1, n + 1):
        a = [[Fraction(m[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        sign = 1
        for col in range(k):
            piv = next((r for r in range(col, k) if a[r][col] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                sign = -sign
            det *= a[col][col]
            for r in range(col + 1, k):
                f = a[r][col] / a[col][col]
                for c in range(col, k):
                    a[r][c] -= f * a[col][c]
        dets.append(sign * det)
    return dets


def dense_is_negative_definite(g: PlumbingGraph) -> bool:
    """Sylvester: leading principal minors alternate in sign, starting negative."""
    dets = leading_minor_dets(intersection_form(g))
    return all(d != 0 and (d > 0) == (k % 2 == 1)
               for k, d in enumerate(dets))


def dense_k_squared(g: PlumbingGraph) -> Fraction:
    """<K, K>: solve M x = K by dense Gauss-Jordan and return K . x."""
    m = intersection_form(g)
    K = canonical_K(g)
    n = g.n
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(K[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    x = [a[i][n] for i in range(n)]
    return sum(Fraction(K[i]) * x[i] for i in range(n))


def pareto_subroot_params(p: SymmetricRootProfile) -> tuple:
    """Monotone-subroot parameters by the O(n^2) Pareto-frontier definition."""
    n = p.n
    pairs = {(p.leaves[i - 1], mirror_merge(p, i)) for i in range(1, (n + 1) // 2 + 1)}
    frontier = [hc for hc in pairs
                if not any(other != hc and other[0] >= hc[0] and other[1] >= hc[1]
                           for other in pairs)]
    frontier.sort(key=lambda hc: -hc[0])
    return tuple(frontier)


def restart_simplify_weak(w: WeaklyMonotoneRoot) -> MonotoneRoot:
    """Delete redundant parameter pairs until the root is strictly monotone.

    When h_i = h_{i+1} the pair (h_i, r_i) is deleted; when r_i = r_{i+1}
    (with h already strict there) the pair (h_{i+1}, r_{i+1}) is deleted.
    The scan restarts from the left after each deletion.
    """
    params = list(w.params)
    changed = True
    while changed:
        changed = False
        for i in range(len(params) - 1):
            if params[i][0] == params[i + 1][0]:
                del params[i]
                changed = True
                break
            if params[i][1] == params[i + 1][1]:
                del params[i + 1]
                changed = True
                break
    return MonotoneRoot(tuple(params))


def compress_list(taus: list[int]) -> tuple[list[int], list[int]]:
    """Leaf/angle tau values by scanning the deduplicated list for extrema."""
    comp: list[int] = []
    for t in taus:
        if not comp or comp[-1] != t:
            comp.append(t)
    last = len(comp) - 1
    minima = [i for i, t in enumerate(comp)
              if (i == 0 or comp[i - 1] > t) and (i == last or comp[i + 1] > t)]
    leaves = [comp[i] for i in minima]
    angles = [max(comp[minima[j]:minima[j + 1] + 1])
              for j in range(len(minima) - 1)]
    return leaves, angles


def dense_rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of A mod 2; returns (R, pivot_columns)."""
    R = (A.copy() % 2).astype(np.uint8)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.flatnonzero(R[r:, c])
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            R[[r, p]] = R[[p, r]]
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def dense_rank(A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(dense_rref(A)[1])


def dense_kernel(A: np.ndarray) -> np.ndarray:
    """Basis of ker(A) as columns, one per free column of the RREF."""
    rows, cols = A.shape
    R, pivots = dense_rref(A)
    free = [c for c in range(cols) if c not in pivots]
    K = np.zeros((cols, len(free)), dtype=np.uint8)
    for idx, f in enumerate(free):
        K[f, idx] = 1
        # back-substitute pivot rows
        for r, p in enumerate(pivots):
            if R[r, f]:
                K[p, idx] = 1
    return K


def dense_solve_affine(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b mod 2 with free variables zero, or None."""
    rows, cols = A.shape
    aug = np.concatenate([A % 2, (b % 2).reshape(rows, 1)], axis=1).astype(np.uint8)
    R, pivots = dense_rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, p in enumerate(pivots):
        x[p] = R[r, cols]
    return x


def expand_map(m, source, target, degree: int) -> tuple[frozenset, ...]:
    """A bit-column map of the given degree as columns of (row, U-exponent) pairs.

    Bit i of column j is the term U^e x_i of the image of x_j, with
    e = (gr(x_i) - gr(x_j) - degree) / 2 read off the ``source`` and
    ``target`` gradings.
    """
    out = []
    for j, col in enumerate(m):
        rows = [i for i in range(col.bit_length()) if col >> i & 1]
        out.append(frozenset((i, int((Fraction(target[i]) - Fraction(source[j]) - degree) / 2))
                             for i in rows))
    return tuple(out)


def pair_mul(a, b) -> tuple[frozenset, ...]:
    """Composition a.b of pair maps: U^e x_k in b(x_j) and U^f x_i in a(x_k)
    give U^(e+f) x_i in a(b(x_j)), with equal terms cancelling over GF(2)."""
    out = []
    for col in b:
        acc: set = set()
        for k, e in col:
            acc ^= {(i, e + f) for i, f in a[k]}
        out.append(frozenset(acc))
    return tuple(out)


def slice_d_lower_offset(st) -> int:
    """max over k = 0..min(m, n) of min(P_0..P_k, Q_k), without Q_m when K = m."""
    P, Q = p_q_sequences(st)
    K = min(st.m, st.n)
    rows = []
    for k in range(K + 1):
        entries = P[: k + 1]
        if not (k == K and K == st.m):
            entries = entries + [Q[k]]
        rows.append(min(entries))
    return max(rows)


def slice_d_upper_offset(st) -> int:
    """min over k = 0..min(m, n+1) of max(Q_0..Q_{k-1}, P_k), without P_{n+1}
    when K = n + 1."""
    P, Q = p_q_sequences(st)
    K = min(st.m, st.n + 1)
    rows = []
    for k in range(K + 1):
        entries = Q[:k]
        if not (k == K and K == st.n + 1):
            entries = entries + [P[k]]
        rows.append(max(entries))
    return min(rows)
