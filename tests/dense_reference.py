"""Slow, direct reference implementations that the fast paths are checked against.

The production code streams the tau steps of a Brieskorn sphere from the
membership bits of a semigroup, eliminates the intersection form along the tree in integers,
decides almost-rationality from one fixed-vertex closure per vertex, takes
the monotone subroot with one running minimum and one sorted sweep,
compresses a tau stream run by run, and does GF(2) linear algebra on int
bitsets.  These
are the definitions those replace: the ceiling formula for the tau steps
and the period tables that stream it, the dense intersection form and its Fraction elimination, the
almost-rationality test that rebuilds the graph for each weight it tries,
the graded-root conditions on a profile checked over all of it (the
profile constructor checks the left half only), the O(n^2) Pareto scan
over ``mirror_merge``, the pair-deleting
restart loop that simplifies a weakly monotone root, the list-based
extrema scan, the reduced row-echelon form of a matrix stored as lists of
0/1 rows, the composition of maps stored as columns of explicit
(row, U-exponent) pairs, the bit-column kernels (composition, spread,
Kronecker columns, tensor product, tower representative) with the set
bits walked by a generator where production scans them inline, the max-min and min-max correction-term bounds
row by row over fresh prefix slices, the expanded model's basis gathered
from the generators' grading groups (the model reads it off its
chain-group masks), the correction terms scanned in truncated models, and
the local-map and homotopy systems assembled term by term with equations
numbered in order of first use, in truncated models whose masks keep the
entries below U^N at N = ``default_truncation`` of both gradings, and the
class complex folded with the growing product on the left of each tensor
step (``report.class_complex`` folds from the right).  ``mat_add``, the
sum of two bit-column maps, lives here too: only the tests add maps.  The
"Truncation" bullet of the ``hfi.complexes`` docstring says why those
truncated systems are the exact ones.
"""

from collections.abc import Iterator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, cycle, repeat
from operator import add, floordiv, mod, sub, xor

from hfi import complexes, gf2
from hfi.brieskorn import BrieskornParams, seifert_invariants
from hfi.complexes import Expanded, _bits, _offsets
from hfi.cterms import p_q_sequences
from hfi.localclass import LocalClass
from hfi.monotone import MonotoneRoot, WeaklyMonotoneRoot, to_profile
from hfi.plumbing import (ARVerdict, PlumbingGraph, canonical_K, chi,
                          is_negative_definite, minimal_cycle)
from hfi.roots import SymmetricRootProfile, standard_complex


def ceiling_tau_deltas(b: BrieskornParams, start: int, stop: int) -> list[int]:
    """Delta(n) = 1 + b0 n - sum_i ceil(n omega_i / a_i) for start <= n < stop
    (Nemethi; Can-Karakurt)."""
    b0, omegas = seifert_invariants(b)
    return [1 + b0 * n - sum(-(-n * w // a) for a, w in zip(b.tuple, omegas))
            for n in range(start, stop)]


def periodic_tau_deltas(b: BrieskornParams, start: int, stop: int) -> Iterator[int]:
    """The ceiling formula as alpha Delta(n) = alpha + n - S(n), streamed
    from period tables for start <= n < stop.

    With ceil(n omega_i/a_i) = (n omega_i + r_i(n))/a_i, r_i(n) =
    (-n omega_i) mod a_i, and b0 alpha = 1 + sum_i omega_i alpha/a_i, the
    formula times alpha reads alpha + n - S(n) with S(n) =
    sum_i (alpha/a_i) r_i(n).  The term of fibre i is (n k_i) mod alpha with
    k_i = -omega_i alpha/a_i and has period a_i in n; each is tabulated over
    its own period from the phase of n = start, the two smaller tables are
    repeated to a1 a2 entries and added, and the sum is cycled against the
    largest.  The division by alpha is exact: S(n) = n mod each a_i, as
    omega_i alpha/a_i = -1 (mod a_i) and a_i divides alpha/a_j for j != i,
    hence mod alpha by the Chinese remainder theorem.
    """
    a1, a2, a3 = b.tuple
    alpha = a1 * a2 * a3
    _, omegas = seifert_invariants(b)
    k1, k2, k3 = (-w * (alpha // ai) for ai, w in zip(b.tuple, omegas))

    def period(k: int, ai: int) -> map:
        """(n k) mod alpha for start <= n < start + ai: one fibre's period."""
        return map(mod, range(start * k, (start + ai) * k, k), repeat(alpha))

    s12 = list(map(add, list(period(k1, a1)) * a2, list(period(k2, a2)) * a1))
    # cycle stores the first pass of the a3 table as it streams it
    sums = map(add, cycle(s12), cycle(period(k3, a3)))
    return map(floordiv, map(sub, range(alpha + start, alpha + stop), sums),
               repeat(alpha))


def tau_closed_form(b: BrieskornParams, steps: int) -> Iterator[int]:
    """tau(0..steps) of Sigma(a1,a2,a3) from the period-table steps."""
    return accumulate(periodic_tau_deltas(b, 0, steps), initial=0)


def intersection_form(g: PlumbingGraph) -> list[list[int]]:
    """The dense form: vertex weights on the diagonal, 1 for each edge."""
    m = [[0] * g.n for _ in range(g.n)]
    for v, (w, nbrs) in enumerate(zip(g.weights(), g.adj)):
        m[v][v] = w
        for u in nbrs:
            m[v][u] = 1
    return m


def rebuild_is_almost_rational(g: PlumbingGraph) -> ARVerdict:
    """The almost-rationality test with a new ``PlumbingGraph`` for each
    weight, each tested by chi(minimal cycle) = 1.

    At weight -10**6 at v, a minimal cycle with coefficient 1 at v certifies
    that this weight is at or below the threshold T of
    ``is_almost_rational``; as rational weights form a down-set, v has a
    rational lowered weight iff this graph is rational.  On the first such v
    the decrements 1, 2, ... are scanned on rebuilt graphs.
    """
    def at(vid, weight):
        return PlumbingGraph(tuple((v, weight if v == vid else x)
                                   for v, x in g.vertices), g.edges)

    def rational(h):
        return chi(h, minimal_cycle(h)) == 1

    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    if rational(g):
        return ARVerdict("yes", g.vertices[0])
    for v, (vid, w) in enumerate(g.vertices):
        h = at(vid, -10**6)
        z = minimal_cycle(h)
        assert z[v] == 1, "the weight -10**6 is above the threshold"
        if chi(h, z) == 1:
            lowered = w - 1
            while not rational(at(vid, lowered)):
                lowered -= 1
            return ARVerdict("yes", (vid, lowered))
    return ARVerdict("no", None)


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


def is_graded_root_profile(leaves, angles) -> bool:
    """Whether leaf and angle gradings form a symmetric graded root: one
    angle between consecutive leaves, both sequences symmetric, no angle
    above an adjacent leaf, and every grading in leaves[0] + 2Z, each
    checked over the whole profile."""
    leaves, angles = list(leaves), list(angles)
    return (len(leaves) >= 1 and len(angles) == len(leaves) - 1
            and leaves == leaves[::-1] and angles == angles[::-1]
            and all(a <= min(leaves[i], leaves[i + 1]) for i, a in enumerate(angles))
            and all((g - leaves[0]) % 2 == 0 for g in leaves + angles))


def mirror_merge(p: SymmetricRootProfile, i: int):
    """Grading of the first J-invariant vertex on the path from leaf i.

    For a leaf in the left half this is min over the mirror-spanning angles
    i..n-i; the central leaf of an odd profile is itself J-invariant.
    """
    n = p.n
    if not (1 <= i <= (n + 1) // 2):
        raise IndexError(f"leaf index {i} not in the left half (1..{(n + 1) // 2})")
    if 2 * i == n + 1:
        return p.leaves[i - 1]
    return min(p.angles[i - 1:n - i])


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


def dense_rref(A: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of the rows x cols matrix A mod 2, given as
    lists of 0/1 rows; returns (R, pivot_columns)."""
    R = [[v % 2 for v in row] for row in A]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= len(R):
            break
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        for i, row in enumerate(R):
            if i != r and row[c]:
                R[i] = [x ^ y for x, y in zip(row, R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def dense_rank(A: list[list[int]], cols: int) -> int:
    return len(dense_rref(A, cols)[1])


def dense_kernel(A: list[list[int]], cols: int) -> list[list[int]]:
    """Basis of ker(A) as 0/1 vectors, one per free column of the RREF."""
    R, pivots = dense_rref(A, cols)
    K = []
    for f in (c for c in range(cols) if c not in pivots):
        x = [0] * cols
        x[f] = 1
        # back-substitute pivot rows
        for r, p in enumerate(pivots):
            if R[r][f]:
                x[p] = 1
        K.append(x)
    return K


def dense_solve_affine(A: list[list[int]], b: list[int], cols: int) -> list[int] | None:
    """One solution x of A x = b mod 2 with free variables zero, or None."""
    R, pivots = dense_rref([row + [v] for row, v in zip(A, b)], cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, p in enumerate(pivots):
        x[p] = R[r][cols]
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


def mat_add(a, b) -> tuple[int, ...]:
    """The sum of two bit-column maps: their columns XORed."""
    return tuple(x ^ y for x, y in zip(a, b))


def bits_mat_mul(a, b) -> tuple[int, ...]:
    """``complexes.mat_mul`` with the set bits of each column of b walked by
    ``_bits`` (the production loop scans them inline)."""
    return tuple(reduce(xor, (a[k] for k in _bits(col)), 0) for col in b)


def bits_spread(R, width: int, n: int) -> list[int]:
    """``complexes._spread``, walking the set bits by ``_bits``."""
    S = [0] * width
    for c, col in enumerate(R):
        for j in _bits(col):
            S[j] |= 1 << c * n
    return S


def bits_kron_columns(rows, L, S, n: int) -> list[int]:
    """``complexes._kron_columns``, walking the set bits by ``_bits``."""
    return [(L[i] << j * n) ^ (S[j] << i)
            for i, row in enumerate(rows) for j in _bits(row)]


def bits_tensor_maps(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(diff, iota) of ``complexes.tensor(a, b)`` term by term: x_i (x) y_k
    is bit i.m + k, m = b.n, d(x (x) y) = dx (x) y + x (x) dy and
    iota(x (x) y) = iota x (x) iota y."""
    m = b.n
    diff, iota = [], []
    for j, (da, ia) in enumerate(zip(a.diff, a.iota)):
        for k, (db, ib) in enumerate(zip(b.diff, b.iota)):
            diff.append(sum(1 << (i * m + k) for i in _bits(da))
                        ^ sum(1 << (j * m + l) for l in _bits(db)))
            iota.append(sum(1 << (i * m + l) for i in _bits(ia) for l in _bits(ib)))
    return tuple(diff), tuple(iota)


def bits_tower(c) -> int:
    """``IotaComplex._tower`` of c from the parity classes of the
    offsets, walking their bits by ``_bits``: the first cycle of the even
    class of L = C/(U - 1), in kernel order, that is not a boundary."""
    even = sum(1 << i for i, t in enumerate(c.offsets) if t % 2 == 0)
    odd = sum(1 << i for i, t in enumerate(c.offsets) if t % 2)
    boundaries = gf2.Echelon(c.diff[j] for j in _bits(odd))
    cycles = gf2.Echelon()
    for j in _bits(even):
        v, z = cycles.add(c.diff[j], 1 << j)
        if not v and z not in boundaries:
            return z
    raise RuntimeError("missing deep tower class")


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


def default_truncation(gradings) -> int:
    """ceil(span/2) + 6: the N every complex held before complexes stopped
    carrying one, which leaves every entry of a graded map below U^N."""
    span = max(gradings) - min(gradings)
    return -(-span // 2) + 6


def truncated_correction_terms(c, N: int):
    """(d, d-bar, d-under) of ``complexes.correction_terms`` by the truncated
    scans: ``_d_scan`` over the model of C at N and ``_cone_scans`` over
    that of its mapping cone (see "Truncation" in the ``hfi.complexes``
    docstring).  An N too small for the probe raises ``WindowError``; a
    complex with no tower, or a triple that breaks d-under <= d <= d-bar,
    raises RuntimeError.  The scans and the model are looked up on the
    module, so that a tracer's patches of them see these calls.
    """
    base = complexes.Expanded(c.gradings, c.diff, N, c.tau)
    terms = (complexes._d_scan(base), *complexes._cone_scans(c, base))
    d, d_bar, d_under = terms
    if not (d_under <= d <= d_bar):
        raise RuntimeError(f"correction-term sanity violated: {terms}")
    return terms


def cone_complex(c: complexes.IotaComplex) -> complexes.IotaComplex:
    """The mapping cone of (1 + iota) on c, with the gradings and columns
    ``_cone_scans`` models it with, as an IotaComplex whose iota is the
    identity (not the cone's; ``homology_ranks`` reads no iota)."""
    g = c.gradings
    return complexes.graded_complex(
        c.labels + tuple(f"Q{l}" for l in c.labels), tuple(t + 1 for t in g) + g,
        complexes._cone_columns(c, c.diff), tuple(1 << j for j in range(2 * c.n)), c.tau)


def left_fold_class_complex(a: LocalClass) -> complexes.IotaComplex:
    """``report.class_complex`` without its size guard, built as
    ((t (x) f_1) (x) f_2) (x) ... (x) f_k, so each ``tensor`` spreads every
    column of the growing product."""
    acc = complexes.trivial_complex(-a.shift)
    for i, c in a.coeffs:
        factor = standard_complex(to_profile(MonotoneRoot(((2 * i, 0),))))
        if c < 0:
            factor = complexes.dual(factor)
        for _ in range(abs(c)):
            acc = complexes.tensor(acc, factor)
    return acc


def below(exp: Expanded, offsets, degree: int) -> tuple[int, ...]:
    """The entries below U^N of a degree-``degree`` map into the model
    ``exp`` from generators at ``offsets``: bit i of column j is set when
    x_i is at offsets[j] + degree + 2e for some 0 <= e < N."""
    return tuple(exp.present.get(t + degree, 0) for t in offsets)


def grouped_basis(offsets, N: int) -> dict[int, tuple[int, ...]]:
    """Every nonempty chain group of the truncated model as its sorted
    generators: x_i is in the group at t when its offset is t + 2k, 0 <= k < N."""
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(offsets):
        groups.setdefault(t, []).append(i)
    basis = {}
    for t in range(max(offsets), min(offsets) - 2 * N + 1, -1):
        gens = tuple(sorted(chain.from_iterable(groups.get(t + 2 * k, ()) for k in range(N))))
        if gens:
            basis[t] = gens
    return basis


class DictSystem:
    """An affine GF(2) system assembled from symbolic variables.

    Equations and unknowns are numbered in order of first use.  Column v is
    an int with bit r set when unknown v occurs in equation r, and the
    right-hand side is an int over the equations in the same way.
    """

    def __init__(self):
        self.vars: dict = {}
        self.eqs: dict = {}
        self.cols: list[int] = []
        self.rhs = 0

    def var(self, key) -> int:
        v = self.vars.setdefault(key, len(self.vars))
        if v == len(self.cols):
            self.cols.append(0)
        return v

    def eq(self, key) -> int:
        return self.eqs.setdefault(key, len(self.eqs))

    def toggle(self, eq_key, var_key):
        self.cols[self.var(var_key)] ^= 1 << self.eq(eq_key)

    def set_rhs(self, eq_key):
        """Set the right-hand side of an equation to 1 (it is 0 until set)."""
        self.rhs |= 1 << self.eq(eq_key)

    def declare(self, name, X) -> None:
        """Register the entries of the variable map X, by row i, then column j."""
        for i, j in sorted((i, j) for j, col in enumerate(X) for i in _bits(col)):
            self.var((name, i, j))

    def add_products(self, eq, L, name, X, R, masks) -> None:
        """Add the entries of L.X + X.R that ``masks`` keeps to equations (eq, i, j).

        Bit i of column j of X is the unknown (name, i, j).
        """
        cols, eqn = self.cols, self.eq
        # column j of X as (i, index of the unknown (name, i, j))
        xv = [[(i, self.var((name, i, j))) for i in _bits(col)] for j, col in enumerate(X)]
        rows = [tuple(_bits(col)) for col in L]
        for j, (col, keep) in enumerate(zip(xv, masks)):
            for l, v in col:
                for i in rows[l]:
                    if keep >> i & 1:
                        cols[v] ^= 1 << eqn((eq, i, j))
        for j, (col, keep) in enumerate(zip(R, masks)):
            for l in _bits(col):
                for i, v in xv[l]:
                    if keep >> i & 1:
                        cols[v] ^= 1 << eqn((eq, i, j))

    def solve(self) -> dict | None:
        # one tagged pass, column v tagged 1 << v: x has free unknowns 0
        e = gf2.Echelon()
        for v, col in enumerate(self.cols):
            e.add(col, 1 << v)
        rest, x = e.reduce(self.rhs)
        if rest:
            return None
        return {k: x >> v & 1 for k, v in self.vars.items()}


def chosen(sol: dict, name, X) -> tuple[int, ...]:
    """The entries of the variable map X that the solution sets to 1."""
    return tuple(sum(1 << i for i in _bits(col) if sol[(name, i, j)])
                 for j, col in enumerate(X))


def dict_solve_homotopy(a, b, rhs):
    """``complexes.solve_homotopy`` with the system assembled by ``DictSystem``
    in the model of b at the default N of both gradings."""
    eb = Expanded(b.gradings, b.diff, default_truncation(a.gradings + b.gradings), a.tau)
    oa = _offsets(a.gradings, eb.base)
    H = below(eb, oa, 1)
    keep0 = below(eb, oa, 0)
    sys = DictSystem()
    sys.declare("h", H)
    sys.add_products("e", b.diff, "h", H, a.diff, keep0)
    for j, (col, keep) in enumerate(zip(rhs, keep0)):
        for i in _bits(col & keep):
            sys.set_rhs(("e", i, j))
    sol = sys.solve()
    return None if sol is None else chosen(sol, "h", H)


def dict_find_local_map(a, b):
    """(F, H) of ``complexes.find_local_map`` with the system assembled by
    ``DictSystem``, or None when it is infeasible."""
    N = default_truncation(a.gradings + b.gradings)
    ea = Expanded(a.gradings, a.diff, N, a.tau)
    eb = Expanded(b.gradings, b.diff, N, a.tau)
    probe = min(ea.probe(0), eb.probe(0))
    za, zb = ea.tower_rep(probe), eb.tower_rep(probe)
    F = below(eb, ea.offsets, 0)
    H = below(eb, ea.offsets, 1)
    sys = DictSystem()
    sys.declare("f", F)
    sys.declare("h", H)
    sys.add_products("c", b.diff, "f", F, a.diff, below(eb, ea.offsets, -1))
    sys.add_products("q", b.iota, "f", F, a.iota, F)
    sys.add_products("q", b.diff, "h", H, a.diff, F)
    at_probe = eb.present.get(probe, 0)
    for j in _bits(za):
        for i in _bits(F[j] & at_probe):
            sys.toggle(("p", i), ("f", i, j))
    for j, col in zip(eb.basis.get(probe + 1, ()), eb.boundary_matrix(probe + 1)):
        for i in _bits(col):
            sys.toggle(("p", i), ("w", j))
    for i in _bits(zb):
        sys.set_rhs(("p", i))
    sol = sys.solve()
    return None if sol is None else (chosen(sol, "f", F), chosen(sol, "h", H))
