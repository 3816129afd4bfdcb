"""Finite free chain complexes over truncated GF(2)[U] with a homotopy involution.

The engine here is the brute-force oracle for everything else in the package:
tensor products, duals, the involutive mapping cone, homology ranks, the three
correction terms (d, d-bar, d-under), and a feasibility search for local maps.

Conventions
-----------
* U has degree -2; the differential has degree -1; the involution degree 0.
* Gradings are exact ``Fraction``s, all congruent to ``tau`` mod 1; the
  U-inverted homology tower lives in ``tau + 2Z``.
* Complexes are stored in the "h-normalized" convention in which the trivial
  one-generator complex plays the role of the 3-sphere and has
  (d, d-bar, d-under) = (0, 0, 0).
* Maps: every graded map (differential, involution, cone differential,
  homotopy, local map) is a ``Map``, a tuple with one column per source
  generator.  Column j is a frozenset of pairs (i, e), one for each term
  U^e x_i of the image of x_j.  Addition is a symmetric difference per
  column, composition adds exponents, and only nonzero entries are stored;
  no map is held as a matrix of polynomials.  In a valid complex each entry
  is 0 or a single U^e with e fixed by the gradings, so e is redundant there.
  It is kept explicit anyway, so that input of the wrong degree (or an entry
  with several terms) is still represented and ``validate`` can report it.
* Truncation: maps store exact exponents; the positive integer
  ``truncation`` N only governs how far computations expand the basis
  {U^k x : k < N}.  Every reported quantity is recomputed at N+2 and must
  agree (stability under refinement is the computable proxy for working over
  the untruncated ring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2

Map = tuple[frozenset[tuple[int, int]], ...]


class TruncationUnstableError(RuntimeError):
    """Raised when a result differs between truncation N and N+2."""


class WindowError(ValueError):
    """Raised when a requested grading window leaves the truncation-stable range."""


class SearchSizeError(RuntimeError):
    """Raised when a local-map feasibility problem exceeds the configured size."""


# ---------------------------------------------------------------------------
# construction helpers


def _to_map(m, n) -> Map:
    """Normalize an n x n map given as sparse columns or as dense rows.

    Sparse input is a sequence of n sets of (row, exponent) pairs.  In dense
    input ``m[i][j]`` is the coefficient of x_i in the image of x_j: an int
    (its parity: 0 or 1) or an iterable of U-exponents.
    """
    if all(isinstance(col, (set, frozenset)) for col in m):
        cols = [frozenset(col) for col in m]
    else:
        cols = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = m[i][j]
                exps = ((0,) if v % 2 else ()) if isinstance(v, int) else frozenset(v)
                cols[j].update((i, e) for e in exps)
    if len(cols) != n:
        raise ValueError(f"map has {len(cols)} columns, expected {n}")
    if any(e < 0 for col in cols for _, e in col):
        raise ValueError("map entry with a negative U-exponent")
    return tuple(map(frozenset, cols))


def mat_mul(a: Map, b: Map) -> Map:
    """Composition a.b: U^e x_k in b(x_j) and U^f x_i in a(x_k) give U^(e+f) x_i."""
    out = []
    for col in b:
        acc: set = set()
        for k, e in col:
            acc ^= {(i, e + f) for i, f in a[k]}
        out.append(frozenset(acc))
    return tuple(out)


def mat_add(a: Map, b: Map) -> Map:
    return tuple(x ^ y for x, y in zip(a, b))


def default_truncation(gradings) -> int:
    span = max(gradings) - min(gradings)
    return int(math.ceil(span / 2)) + 6


@dataclass(frozen=True)
class IotaComplex:
    """A free GF(2)[U]-complex with involution.

    ``diff[j]`` holds a pair (i, e) for each term U^e x_i of the boundary of
    generator j (and likewise for ``iota``).
    """

    labels: tuple[str, ...]
    gradings: tuple[Fraction, ...]
    diff: Map
    iota: Map
    tau: Fraction
    truncation: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def gmax(self) -> Fraction:
        return max(self.gradings)

    @property
    def gmin(self) -> Fraction:
        return min(self.gradings)

    def with_truncation(self, n: int) -> "IotaComplex":
        return IotaComplex(self.labels, self.gradings, self.diff, self.iota, self.tau, n)


def iota_complex(labels, gradings, diff, iota, tau=None, truncation=None) -> IotaComplex:
    """Build an IotaComplex; ``diff`` and ``iota`` are read by ``_to_map``.

    Entries are stored as given: an entry of the wrong degree is kept for
    ``validate`` to report, and a negative exponent raises ValueError.
    """
    n = len(labels)
    gradings = tuple(Fraction(g) for g in gradings)
    if len(gradings) != n:
        raise ValueError("labels/gradings length mismatch")
    diff = _to_map(diff, n)
    iota = _to_map(iota, n)
    if tau is None:
        tau = gradings[0]
    tau = Fraction(tau)
    if truncation is None:
        truncation = default_truncation(gradings)
    return IotaComplex(tuple(labels), gradings, diff, iota, tau, truncation)


def trivial_complex(grading=0) -> IotaComplex:
    """One generator, zero differential, identity involution."""
    return iota_complex(("x",), (grading,), ((0,),), ((1,),), tau=Fraction(grading))


# ---------------------------------------------------------------------------
# expanded GF(2) model: basis {U^k x_i : 0 <= k < N}


class Expanded:
    """Per-grading GF(2) bases and boundary matrices of a truncated complex."""

    def __init__(self, gradings, diff: Map, truncation: int):
        self.gradings = tuple(Fraction(g) for g in gradings)
        self.diff = diff
        self.N = truncation
        self.gmax = max(self.gradings)
        self.gmin = min(self.gradings)
        # homology at grading g needs complete chain groups at g+1, g, g-1
        self.stable_low = self.gmax - 2 * self.N + 2
        self.basis: dict[Fraction, list[tuple[int, int]]] = {}
        self.index: dict[Fraction, dict[tuple[int, int], int]] = {}
        for i, g in enumerate(self.gradings):
            for k in range(self.N):
                gr = g - 2 * k
                self.basis.setdefault(gr, []).append((i, k))
        for gr, elems in self.basis.items():
            self.index[gr] = {e: p for p, e in enumerate(elems)}
        self._bmat: dict[Fraction, np.ndarray] = {}

    def dim(self, g) -> int:
        return len(self.basis.get(Fraction(g), ()))

    def boundary_matrix(self, g) -> np.ndarray:
        """Matrix of the differential from grading g to grading g-1."""
        g = Fraction(g)
        if g in self._bmat:
            return self._bmat[g]
        src = self.basis.get(g, [])
        tgt_index = self.index.get(g - 1, {})
        M = gf2.as_mat(len(tgt_index), len(src))
        for col, (j, k) in enumerate(src):
            for i, e in self.diff[j]:
                pos = tgt_index.get((i, k + e))
                if pos is not None:
                    M[pos, col] ^= 1
        self._bmat[g] = M
        return M

    def cycles(self, g) -> np.ndarray:
        return gf2.kernel(self.boundary_matrix(g))

    def boundaries(self, g) -> np.ndarray:
        """Columns spanning the boundaries landing in grading g."""
        B = self.boundary_matrix(Fraction(g) + 1)
        if B.shape[0] != self.dim(g):  # no chains above
            return gf2.as_mat(self.dim(g), 0)
        return B

    def umap(self, vectors: np.ndarray, g, m: int) -> np.ndarray:
        """Apply U^m to column vectors at grading g, landing at g - 2m."""
        g = Fraction(g)
        src = self.basis.get(g, [])
        tgt_index = self.index.get(g - 2 * m, {})
        out = gf2.as_mat(len(tgt_index), vectors.shape[1])
        for row, (i, k) in enumerate(src):
            kk = k + m
            if kk >= self.N:
                continue
            pos = tgt_index.get((i, kk))
            if pos is not None:
                out[pos] ^= vectors[row]
        return out

    def homology_dim(self, g) -> int:
        g = Fraction(g)
        if g - 1 < self.stable_low - 1:
            raise WindowError(f"grading {g} is below the truncation-stable window "
                              f"(stable down to {self.stable_low})")
        zdim = self.dim(g) - gf2.rank(self.boundary_matrix(g))
        bdim = gf2.rank(self.boundary_matrix(g + 1))
        return zdim - bdim

    def probe(self, parity_anchor) -> Fraction:
        """Deepest stable grading <= gmin - 2 congruent to parity_anchor mod 2."""
        g = self.gmin - 2
        while (g - parity_anchor) % 2 != 0:
            g -= 1
        if g < self.stable_low:
            raise WindowError("truncation too small for a deep probe grading")
        return g

    def tower_rep(self, g) -> np.ndarray | None:
        """A cycle at grading g that is nonzero in homology, or None."""
        Z = self.cycles(g)
        B = self.boundaries(g)
        rb = gf2.rank(B)
        for c in range(Z.shape[1]):
            cand = Z[:, : c + 1]
            if gf2.rank(np.concatenate([B, cand], axis=1)) > rb:
                return Z[:, c]
        return None


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Diagnostics:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def __str__(self) -> str:
        return "\n".join(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}"
                         for name, ok, detail in self.checks)


def _degree_check(c: IotaComplex, m: Map, degree: int) -> str | None:
    for j, col in enumerate(m):
        for i, e in sorted(col):
            if c.gradings[i] - 2 * e != c.gradings[j] + degree:
                return (f"entry ({c.labels[i]}, {c.labels[j]}) exponent {e}: "
                        f"grading {c.gradings[i]} - {2*e} != "
                        f"{c.gradings[j]} + ({degree})")
    return None


def validate(c: IotaComplex) -> Diagnostics:
    """Check every defining invariant; returns per-check diagnostics."""
    checks = []
    bad = [g for g in c.gradings if (g - c.tau).denominator != 1]
    checks.append(("coset", not bad,
                   "all gradings differ from tau by integers" if not bad
                   else f"gradings {bad} not in tau + Z"))
    err = _degree_check(c, c.diff, -1)
    checks.append(("differential degree -1", err is None, err or "ok"))
    err = _degree_check(c, c.iota, 0)
    checks.append(("iota degree 0", err is None, err or "ok"))
    structural_ok = all(ok for _, ok, _ in checks)
    if not structural_ok:
        return Diagnostics(tuple(checks))

    def first_nonzero(m: Map) -> int | None:
        """First column with a term below U^truncation."""
        return next((j for j, col in enumerate(m)
                     if any(e < c.truncation for _, e in col)), None)

    j = first_nonzero(mat_mul(c.diff, c.diff))
    checks.append(("d^2 = 0", j is None,
                   "ok" if j is None else f"d(d({c.labels[j]})) != 0"))

    j = first_nonzero(mat_add(mat_mul(c.iota, c.diff), mat_mul(c.diff, c.iota)))
    checks.append(("iota chain map", j is None,
                   "ok" if j is None else "iota d != d iota"))

    identity = tuple(frozenset({(j, 0)}) for j in range(c.n))
    H = solve_homotopy(c, c, mat_add(mat_mul(c.iota, c.iota), identity))
    checks.append(("iota^2 ~ id", H is not None,
                   "homotopy found" if H is not None else
                   "no homotopy H with dH + Hd = iota^2 + id"))

    tower_ok, detail = _single_tower_check(c)
    checks.append(("single U-inverted tower", tower_ok, detail))
    return Diagnostics(tuple(checks))


def _single_tower_check(c: IotaComplex) -> tuple[bool, str]:
    exp = Expanded(c.gradings, c.diff, c.truncation)
    try:
        p_even = exp.probe(c.tau)
        p_odd = exp.probe(c.tau + 1)
    except WindowError as e:
        return False, str(e)
    d_even = exp.homology_dim(p_even)
    d_odd = exp.homology_dim(p_odd)
    ok = d_even == 1 and d_odd == 0
    return ok, (f"deep homology ranks: {d_even} in tau-parity, {d_odd} off-parity")


def ensure_valid(c: IotaComplex) -> None:
    diag = validate(c)
    if not diag.ok:
        raise ValueError("invalid complex:\n" + str(diag))


# ---------------------------------------------------------------------------
# constructions


def tensor(a: IotaComplex, b: IotaComplex) -> IotaComplex:
    """Tensor product over GF(2)[U]; gradings add, iota = iota_a (x) iota_b.

    No grading shift is applied: classes are stored in the h-normalized
    convention, where the trivial complex is the unit.
    """
    m = b.n  # generator x_i (x) y_k has index i * m + k
    labels = [f"{la}*{lb}" for la in a.labels for lb in b.labels]
    gradings = [ga + gb for ga in a.gradings for gb in b.gradings]
    diff, iota = [], []
    for j in range(a.n):
        for l in range(b.n):
            diff.append(frozenset((i * m + l, e) for i, e in a.diff[j])
                        ^ frozenset((j * m + k, e) for k, e in b.diff[l]))
            acc: set = set()
            for i, e in a.iota[j]:
                acc ^= {(i * m + k, e + f) for k, f in b.iota[l]}
            iota.append(frozenset(acc))
    return iota_complex(labels, gradings, diff, iota, tau=a.tau + b.tau)


def dual(a: IotaComplex) -> IotaComplex:
    """Dual complex: gradings negated, differential and iota transposed."""
    def transpose(m: Map) -> Map:
        cols: list[set] = [set() for _ in m]
        for j, col in enumerate(m):
            for i, e in col:
                cols[i].add((j, e))
        return tuple(map(frozenset, cols))

    labels = tuple(f"{l}^" for l in a.labels)
    gradings = tuple(-g for g in a.gradings)
    return iota_complex(labels, gradings, transpose(a.diff), transpose(a.iota),
                        tau=-a.tau)


@dataclass(frozen=True)
class ConeComplex:
    """Mapping cone of (1 + iota): C -> Q.C.

    Generators 0..n-1 are the un-decorated copies (grading raised by one),
    generators n..2n-1 the Q-decorated copies (original chain grading).
    The total differential is d + Q(1 + iota).
    """

    base: IotaComplex
    labels: tuple[str, ...]
    gradings: tuple[Fraction, ...]
    diff: Map

    @property
    def n(self) -> int:
        return len(self.labels)


def mapping_cone(a: IotaComplex) -> ConeComplex:
    n = a.n
    labels = tuple(a.labels) + tuple(f"Q{l}" for l in a.labels)
    gradings = tuple(g + 1 for g in a.gradings) + tuple(a.gradings)

    def to_q(col):
        return frozenset((n + i, e) for i, e in col)

    # d(x_j) = d x_j + Q(x_j + iota x_j);  d(Q x_j) = Q d x_j
    diff = (tuple(col | (to_q(a.iota[j]) ^ {(n + j, 0)}) for j, col in enumerate(a.diff))
            + tuple(to_q(col) for col in a.diff))
    return ConeComplex(a, labels, gradings, diff)


# ---------------------------------------------------------------------------
# homology ranks


def homology_ranks(c, window, truncation: int | None = None) -> dict[Fraction, int]:
    """Exact GF(2) homology dimensions on a grading window.

    ``c`` may be an IotaComplex or a ConeComplex; ``window`` is either an
    iterable of gradings or a (low, high) pair, expanded in integer steps from
    the anchor grading.  Gradings outside the truncation-stable range are
    refused with a WindowError.
    """
    gradings, diff = _chain_data(c)
    N = truncation or (c.truncation if isinstance(c, IotaComplex)
                       else c.base.truncation)
    exp = Expanded(gradings, diff, N)
    if isinstance(window, tuple) and len(window) == 2 and not isinstance(window[0], tuple):
        lo, hi = Fraction(window[0]), Fraction(window[1])
        anchor = gradings[0]
        start = hi - ((hi - anchor) % 1)
        gs = []
        g = start
        while g >= lo:
            gs.append(g)
            g -= 1
    else:
        gs = [Fraction(g) for g in window]
    return {g: exp.homology_dim(g) for g in gs}


def _chain_data(c):
    if isinstance(c, (IotaComplex, ConeComplex)):
        return c.gradings, c.diff
    raise TypeError(f"not a complex: {c!r}")


# ---------------------------------------------------------------------------
# correction terms


def _d_scan(c: IotaComplex, N: int) -> Fraction:
    """Top of the U-inverted tower of H(C)."""
    exp = Expanded(c.gradings, c.diff, N)
    probe = exp.probe(c.tau)
    B0 = exp.boundaries(probe)
    rb = gf2.rank(B0)
    r = c.gmax
    while (r - c.tau) % 2 != 0:
        r -= 1
    while r >= probe:
        Z = exp.cycles(r)
        if Z.shape[1]:
            V = exp.umap(Z, r, int((r - probe) / 2))
            if gf2.rank(np.concatenate([B0, V], axis=1)) > rb:
                return r
        r -= 2
    raise RuntimeError("no tower class found; complex violates the tower axiom")


def _cone_scans(c: IotaComplex, N: int) -> tuple[Fraction, Fraction]:
    """(d-bar, d-under) from the mapping cone, h-normalized convention."""
    cone = mapping_cone(c)
    exp = Expanded(cone.gradings, cone.diff, N)
    base_exp = Expanded(c.gradings, c.diff, N)
    gmax = max(cone.gradings)

    def q_cycles_at(g: Fraction) -> np.ndarray:
        """Q.(cycles of C) at cone grading g, in the cone's expanded basis."""
        Zc = base_exp.cycles(g)
        src = base_exp.basis.get(g, [])
        tgt_index = exp.index.get(g, {})
        out = gf2.as_mat(len(tgt_index), Zc.shape[1])
        for row, (i, k) in enumerate(src):
            pos = tgt_index.get((c.n + i, k))
            if pos is not None:
                out[pos] ^= Zc[row]
        return out

    def scan(parity, member_of_q_image: bool) -> Fraction:
        probe = exp.probe(parity)
        B0 = exp.boundaries(probe)
        QZ0 = q_cycles_at(probe)
        BQ = np.concatenate([B0, QZ0], axis=1)
        rb, rbq = gf2.rank(B0), gf2.rank(BQ)
        r = gmax
        while (r - parity) % 2 != 0:
            r -= 1
        while r >= probe:
            Z = exp.cycles(r)
            if Z.shape[1]:
                V = exp.umap(Z, r, int((r - probe) / 2))
                if member_of_q_image:
                    # some U^m z nonzero in homology but in the image of Q
                    if gf2.intersection_dim(V, BQ) > gf2.intersection_dim(V, B0):
                        return r
                else:
                    # some U^m z surviving outside B + Q.cycles
                    if gf2.rank(np.concatenate([BQ, V], axis=1)) > rbq:
                        return r
            r -= 2
        raise RuntimeError("cone scan found no qualifying tower class")

    d_under = scan(c.tau + 1, member_of_q_image=False) - 1
    d_bar = scan(c.tau, member_of_q_image=True)
    return d_bar, d_under


def correction_terms(c: IotaComplex,
                     truncation: int | None = None) -> tuple[Fraction, Fraction, Fraction]:
    """(d, d-bar, d-under), exact, stable under truncation refinement.

    The trivial complex returns (0, 0, 0).  Results are computed at N and at
    N+2 and must agree, otherwise TruncationUnstableError is raised.
    """
    N = truncation or c.truncation

    def at(n):
        d = _d_scan(c, n)
        d_bar, d_under = _cone_scans(c, n)
        return d, d_bar, d_under

    first, second = at(N), at(N + 2)
    if first != second:
        raise TruncationUnstableError(
            f"correction terms differ between truncation {N} -> {first} "
            f"and {N + 2} -> {second}; increase the truncation")
    d, d_bar, d_under = first
    if not (d_under <= d <= d_bar):
        raise RuntimeError(f"correction-term sanity violated: {first}")
    return first


# ---------------------------------------------------------------------------
# homotopy / local-map linear systems


class _System:
    """An affine GF(2) system assembled from symbolic variables."""

    def __init__(self):
        self.vars: dict = {}
        self.rows: dict = {}

    def var(self, key) -> int:
        return self.vars.setdefault(key, len(self.vars))

    def toggle(self, eq_key, var_key):
        row = self.rows.setdefault(eq_key, [set(), 0])
        v = self.var(var_key)
        row[0] ^= {v}

    def set_rhs(self, eq_key, bit):
        row = self.rows.setdefault(eq_key, [set(), 0])
        row[1] = bit

    def declare(self, name, X: Map) -> None:
        """Register the entries of the variable map X, row by row.

        The solution sets free unknowns to 0, so which solution is returned
        depends on the unknowns' order; declaring them up front fixes it.
        """
        for i, j in sorted((i, j) for j, col in enumerate(X) for i, _ in col):
            self.var((name, i, j))

    def add_products(self, eq, L: Map, name, X: Map, R: Map, N: int) -> None:
        """Add the terms of L.X + X.R below U^N to equations (eq, i, j, e).

        Each entry (i, e) of column j of X is the unknown (name, i, j): the
        coefficient of U^e x_i in X(x_j), which is 0 or 1.
        """
        for j, col in enumerate(X):
            for l, e in col:
                for i, u in L[l]:
                    if e + u < N:
                        self.toggle((eq, i, j, e + u), (name, l, j))
        for j, col in enumerate(R):
            for l, u in col:
                for i, e in X[l]:
                    if e + u < N:
                        self.toggle((eq, i, j, e + u), (name, i, l))

    def solve(self) -> dict | None:
        nv = len(self.vars)
        A = gf2.as_mat(len(self.rows), nv)
        b = np.zeros(len(self.rows), dtype=np.uint8)
        for r, (vs, rhs) in enumerate(self.rows.values()):
            for v in vs:
                A[r, v] = 1
            b[r] = rhs
        x = gf2.solve_affine(A, b)
        if x is None:
            return None
        return {k: int(x[idx]) for k, idx in self.vars.items()}


def _variable_map(a: IotaComplex, b: IotaComplex, degree: int, N: int) -> Map:
    """Every term U^e x_i (e < N) that a degree-``degree`` map a -> b can have."""
    at: dict[Fraction, list[int]] = {}
    for i, g in enumerate(b.gradings):
        at.setdefault(g, []).append(i)
    return tuple(frozenset((i, e) for e in range(N) for i in at.get(ga + degree + 2 * e, ()))
                 for ga in a.gradings)


def _chosen(sol: dict, name, X: Map) -> Map:
    """The entries of the variable map X that the solution sets to 1."""
    return tuple(frozenset((i, e) for i, e in col if sol[(name, i, j)])
                 for j, col in enumerate(X))


def solve_homotopy(a: IotaComplex, b: IotaComplex, rhs: Map) -> Map | None:
    """Solve d_b H + H d_a = rhs for a degree +1 map H: a -> b, mod U^N."""
    N = max(a.truncation, b.truncation)
    H = _variable_map(a, b, 1, N)
    sys = _System()
    sys.declare("h", H)
    sys.add_products("e", b.diff, "h", H, a.diff, N)
    for j, col in enumerate(rhs):
        for i, u in col:
            if u < N:
                sys.set_rhs(("e", i, j, u), 1)
    sol = sys.solve()
    return None if sol is None else _chosen(sol, "h", H)


@dataclass(frozen=True)
class LocalMapWitness:
    """A grading-preserving chain map F with homotopy H for iota-commutation."""

    F: Map
    H: Map
    source: IotaComplex
    target: IotaComplex


def find_local_map(a: IotaComplex, b: IotaComplex,
                   max_unknowns: int = 6000) -> LocalMapWitness | None:
    """Search for a local map a -> b as an affine GF(2) feasibility problem.

    The witness is a grading-preserving chain map F with
    F iota_a + iota_b F = dH + Hd and F carrying the deep tower generator of
    ``a`` to the deep tower generator of ``b`` (pinned as an affine
    constraint, which makes U-nondegeneracy linear).  Returns None when the
    system is infeasible.
    """
    if ((a.tau - b.tau).denominator != 1) or int(a.tau - b.tau) % 2 != 0:
        raise ValueError(f"tower cosets differ: tau={a.tau} vs {b.tau}")
    span = max(a.gmax, b.gmax) - min(a.gmin, b.gmin)
    N = int(math.ceil(span / 2)) + 6
    ea = Expanded(a.gradings, a.diff, N)
    eb = Expanded(b.gradings, b.diff, N)
    probe = min(ea.probe(a.tau), eb.probe(a.tau))
    while (probe - a.tau) % 2 != 0:
        probe -= 1
    if probe < max(ea.stable_low, eb.stable_low):
        raise WindowError("no common deep probe grading; increase truncation")
    za = ea.tower_rep(probe)
    zb = eb.tower_rep(probe)
    if za is None or zb is None:
        raise RuntimeError("missing deep tower class")

    F = _variable_map(a, b, 0, N)
    H = _variable_map(a, b, 1, N)
    nf, nh = sum(map(len, F)), sum(map(len, H))
    w_dim = eb.dim(probe + 1)
    if (nf + nh + w_dim) > max_unknowns:
        raise SearchSizeError(
            f"local-map system too large: {nf} F-vars, "
            f"{nh} H-vars, {w_dim} slack vars (limit {max_unknowns})")

    sys = _System()
    sys.declare("f", F)
    sys.declare("h", H)
    # (1) chain-map condition: d_b F + F d_a = 0
    sys.add_products("c", b.diff, "f", F, a.diff, N)
    # (2) iota-commutation up to homotopy: iota_b F + F iota_a + d_b H + H d_a = 0
    sys.add_products("q", b.iota, "f", F, a.iota, N)
    sys.add_products("q", b.diff, "h", H, a.diff, N)
    # (3) tower pinning: F(z_a) + d_b(w) = z_b at the probe grading
    tgt_index = eb.index.get(probe, {})
    for row, (j, k) in enumerate(ea.basis.get(probe, [])):
        if za[row]:
            for i, e in F[j]:
                pos = tgt_index.get((i, k + e))
                if pos is not None:
                    sys.toggle(("p", pos), ("f", i, j))
    bw = eb.boundary_matrix(probe + 1)
    for q in range(w_dim):
        for pos in np.flatnonzero(bw[:, q]):
            sys.toggle(("p", int(pos)), ("w", q))
    for pos in range(len(tgt_index)):
        sys.set_rhs(("p", pos), int(zb[pos]))

    sol = sys.solve()
    if sol is None:
        return None
    return LocalMapWitness(_chosen(sol, "f", F), _chosen(sol, "h", H), a, b)


def locally_equivalent(a: IotaComplex, b: IotaComplex) -> bool:
    """True iff local maps exist in both directions."""
    return (find_local_map(a, b) is not None
            and find_local_map(b, a) is not None)


# ---------------------------------------------------------------------------
# serialization (debugging; used by the CLI --dump-complex flag)


def complex_to_json(c: IotaComplex) -> dict:
    def mat(m: Map) -> list:
        """Row i, column j: the sorted exponents of x_i in the image of x_j."""
        rows = [[[] for _ in m] for _ in m]
        for j, col in enumerate(m):
            for i, e in col:
                rows[i][j].append(e)
        return [[sorted(exps) for exps in row] for row in rows]

    return {
        "labels": list(c.labels),
        "gradings": [str(g) for g in c.gradings],
        "tau": str(c.tau),
        "truncation": c.truncation,
        "differential": mat(c.diff),
        "iota": mat(c.iota),
    }
