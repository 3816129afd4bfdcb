"""Finite free chain complexes over truncated GF(2)[U] with a homotopy involution.

The engine here is the brute-force oracle for everything else in the package:
tensor products, duals, the involutive mapping cone, homology ranks, the three
correction terms (d, d-bar, d-under), and a feasibility search for local maps.

Conventions
-----------
* U has degree -2; the differential has degree -1; the involution degree 0.
* Gradings are exact, int or ``Fraction``, and keep the type they arrive
  in, so no float appears; all are congruent to ``tau`` mod 1, and the
  U-inverted homology tower lives in ``tau + 2Z``.  That is the API; inside
  the expanded model (``Expanded``) a grading is the int offset from tau,
  and a grading outside ``tau + Z`` is refused with a ValueError that
  names it.
* Complexes are stored in the "h-normalized" convention in which the trivial
  one-generator complex plays the role of the 3-sphere and has
  (d, d-bar, d-under) = (0, 0, 0).
* Maps: every graded map (differential, involution, cone differential,
  homotopy, local map) is a ``Map``, a tuple of ints with one column per
  source generator: bit i of column j means that x_i occurs in the image of
  x_j.  In a graded map of degree deg each entry is 0 or a single U^e, and
  the gradings fix e = (g_i - g_j - deg)/2, so the exponent is never stored;
  serialization reads it off the gradings, and the truncation masks (the
  entries with e < N) are the chain groups ``Expanded.present``.  Addition
  XORs columns, and composition XORs the columns of the left map that the
  bits of the right one select: the exponents add by themselves.  Raw input
  is the one place with explicit (row, exponent) pairs.  ``iota_complex``
  reads them once, keeps the terms of the right degree as bits and records
  the first term of a wrong degree as a defect of the complex, which
  ``validate`` reports.
* The involution: ``validate`` checks iota^2 ~ id.  On the complexes built
  here (standard complexes of symmetric graded roots, where iota reflects
  the root, and their tensor products and duals) iota^2 = id exactly, and
  then H = 0 is the homotopy and no system is solved; any other iota goes
  through ``solve_homotopy``.
* Truncation: maps are exact; the positive integer ``truncation`` N only
  governs how far computations expand the basis {U^k x : k < N}.  Every
  reported quantity is recomputed at N+2 and must agree (stability under
  refinement is the computable proxy for working over the untruncated ring).
* Chains: a generator x_i contributes at most one basis element U^k x_i to
  a grading, so a chain at a grading is an int with bit i set for x_i (see
  ``gf2``), just like a map column.  U^m is a mask, Q.(chains of C) in the
  mapping cone is a shift by n, and the local-map and homotopy searches are
  int-column systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import gf2

Map = tuple[int, ...]
Grading = int | Fraction


class TruncationUnstableError(RuntimeError):
    """Raised when a result differs between truncation N and N+2."""


class WindowError(ValueError):
    """Raised when a requested grading window leaves the truncation-stable range."""


class SearchSizeError(RuntimeError):
    """Raised when a local-map feasibility problem exceeds the configured size."""


# ---------------------------------------------------------------------------
# construction helpers


def _bits(v: int):
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _read_map(m, labels, gradings, degree: int) -> tuple[Map, str | None]:
    """Read a raw n x n map of the given degree into bit columns.

    Sparse input is a sequence of n sets of (row, exponent) pairs.  In dense
    input ``m[i][j]`` is the coefficient of x_i in the image of x_j: an int
    (its parity: 0 or 1) or an iterable of U-exponents.  The terms of the
    given degree become bits.  The others are dropped, and the first of them
    (by column, then row and exponent) is described in the returned message.
    A negative exponent raises ValueError.
    """
    n = len(labels)
    if all(isinstance(col, (set, frozenset)) for col in m):
        cols = list(m)
    else:
        cols = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = m[i][j]
                exps = ((0,) if v % 2 else ()) if isinstance(v, int) else v
                cols[j].update((i, e) for e in exps)
    if len(cols) != n:
        raise ValueError(f"map has {len(cols)} columns, expected {n}")
    if any(e < 0 for col in cols for _, e in col):
        raise ValueError("map entry with a negative U-exponent")
    out, defect = [], None
    for j, col in enumerate(cols):
        bits = 0
        for i, e in sorted(col):
            if gradings[i] - 2 * e == gradings[j] + degree:
                bits |= 1 << i
            elif defect is None:
                defect = (f"entry ({labels[i]}, {labels[j]}) exponent {e}: "
                          f"grading {gradings[i]} - {2*e} != "
                          f"{gradings[j]} + ({degree})")
        out.append(bits)
    return tuple(out), defect


def mat_mul(a: Map, b: Map) -> Map:
    """Composition a.b: x_k in b(x_j) and x_i in a(x_k) give x_i in a(b(x_j))."""
    out = []
    for col in b:
        acc = 0
        for k in _bits(col):
            acc ^= a[k]
        out.append(acc)
    return tuple(out)


def mat_add(a: Map, b: Map) -> Map:
    return tuple(x ^ y for x, y in zip(a, b))


def default_truncation(gradings) -> int:
    span = max(gradings) - min(gradings)
    return -(-span // 2) + 6


DEGREE_CHECKS = (("differential degree -1", -1), ("iota degree 0", 0))


@dataclass(frozen=True)
class IotaComplex:
    """A free GF(2)[U]-complex with involution.

    ``diff`` and ``iota`` are bit-column maps of degree -1 and 0: bit i of
    ``diff[j]`` means that U^e x_i, with e = (g_i - g_j + 1)/2, is a term of
    the boundary of x_j (and likewise for ``iota``, with e = (g_i - g_j)/2).
    ``defects`` holds a (check, message) pair for each map whose raw input
    had a term of the wrong degree, which ``iota_complex`` dropped;
    ``validate`` reports it, and ``tensor`` and ``dual`` carry it forward.
    """

    labels: tuple[str, ...]
    gradings: tuple[Grading, ...]
    diff: Map
    iota: Map
    tau: Grading
    truncation: int
    defects: tuple[tuple[str, str], ...] = ()

    @property
    def n(self) -> int:
        return len(self.labels)


def graded_complex(labels, gradings, diff: Map, iota: Map, tau: Grading,
                   defects=()) -> IotaComplex:
    """An IotaComplex from exact gradings and bit-column maps.

    The maps are taken as graded: every bit is a term of the right degree.
    """
    return IotaComplex(tuple(labels), tuple(gradings), tuple(diff), tuple(iota),
                       tau, default_truncation(gradings), tuple(defects))


def iota_complex(labels, gradings, diff, iota, tau=None, truncation=None) -> IotaComplex:
    """Build an IotaComplex from raw maps; ``diff`` and ``iota`` are read by ``_read_map``.

    A term of the wrong degree is dropped and recorded in ``defects`` for
    ``validate`` to report; a negative exponent raises ValueError.
    """
    labels = tuple(labels)
    gradings = tuple(Fraction(g) for g in gradings)
    if len(gradings) != len(labels):
        raise ValueError("labels/gradings length mismatch")
    maps, defects = [], []
    for m, (check, degree) in zip((diff, iota), DEGREE_CHECKS):
        bits, defect = _read_map(m, labels, gradings, degree)
        maps.append(bits)
        if defect is not None:
            defects.append((check, defect))
    tau = gradings[0] if tau is None else Fraction(tau)
    if truncation is None:
        truncation = default_truncation(gradings)
    return IotaComplex(labels, gradings, *maps, tau, truncation, tuple(defects))


def trivial_complex(grading=0) -> IotaComplex:
    """One generator, zero differential, identity involution."""
    return graded_complex(("x",), (grading,), (0,), (1,), grading)


# ---------------------------------------------------------------------------
# expanded GF(2) model: basis {U^k x_i : 0 <= k < N}


def _offsets(gradings, base: Grading) -> list[int]:
    """The gradings as int offsets from base, in integer arithmetic.

    Raises ValueError naming the first grading that is not in base + Z.
    """
    bn, bd = base.as_integer_ratio()
    off = []
    for g in gradings:
        num, den = g.as_integer_ratio()
        t, rest = divmod(num * bd - bn * den, den * bd)
        if rest:
            raise ValueError(f"grading {g} is not in {base} + Z: the gradings "
                             f"of a complex must differ from tau by integers")
        off.append(t)
    return off


class Expanded:
    """The truncated complex as one GF(2) chain group per grading.

    Gradings are int offsets t from ``base`` = tau; ``offset`` and
    ``grading`` convert, and every method takes and returns offsets.  Each
    generator x_i contributes at most one basis element U^k x_i (k < N) to a
    grading, so a chain there is an int with bit i for x_i:

    * ``present[t]`` is the chain group at t as such a mask, and ``basis[t]``
      lists its generators in increasing order;
    * ``dbits`` is the differential as given, a graded bit-column ``Map``:
      the boundary of U^k x_j at t is ``dbits[j]`` masked by
      ``present[t - 1]``, which drops the terms U^(k+e) x_i with k + e >= N;
    * U^m from t to t - 2m is the mask ``present[t - 2m]``;
    * ``offsets[i]`` is the offset of x_i, and ``below`` masks graded maps
      into this complex by ``present``.
    """

    def __init__(self, gradings, diff: Map, truncation: int, tau):
        self.base = tau
        self.offsets = off = _offsets(gradings, self.base)
        self.n = len(off)
        self.N = N = truncation
        self.top = max(off)
        self.bottom = min(off)
        # homology at offset t needs complete chain groups at t+1, t, t-1
        self.stable_low = self.top - 2 * N + 2
        self.dbits = diff
        groups: dict[int, list[int]] = {}
        for i, t in enumerate(off):
            groups.setdefault(t, []).append(i)
        masks = {t: sum(1 << i for i in gens) for t, gens in groups.items()}
        self.present: dict[int, int] = {}
        self.basis: dict[int, tuple[int, ...]] = {}
        for t in range(self.top, self.bottom - 2 * N + 1, -1):
            # present[t] = masks[t] + masks[t+2] + ... + masks[t + 2N - 2]
            mask = self.present.get(t + 2, 0) ^ masks.get(t, 0) ^ masks.get(t + 2 * N, 0)
            if mask:
                self.present[t] = mask
                self.basis[t] = tuple(sorted(chain.from_iterable(
                    groups.get(t + 2 * k, ()) for k in range(N))))
        self._bmat: dict[int, gf2.Matrix] = {}
        self._cycles: dict[int, gf2.Matrix] = {}

    def offset(self, g) -> int:
        return _offsets([Fraction(g)], self.base)[0]

    def grading(self, t: int) -> Grading:
        return self.base + t

    def below(self, offsets, degree: int) -> Map:
        """The entries below U^N of a degree-``degree`` map into this complex
        from generators at ``offsets``: bit i of column j is set when x_i is
        at offsets[j] + degree + 2e for some 0 <= e < N."""
        present = self.present
        return tuple(present.get(t + degree, 0) for t in offsets)

    def dim(self, t: int) -> int:
        return len(self.basis.get(t, ()))

    def boundary_matrix(self, t: int) -> gf2.Matrix:
        """Matrix of the differential from offset t to t-1, one column per basis[t]."""
        B = self._bmat.get(t)
        if B is None:
            below = self.present.get(t - 1, 0)
            dbits = self.dbits
            B = self._bmat[t] = gf2.Matrix(
                self.n, [dbits[j] & below for j in self.basis.get(t, ())])
        return B

    def cycles(self, t: int) -> gf2.Matrix:
        Z = self._cycles.get(t)
        if Z is None:
            units = gf2.Matrix(self.n, [1 << j for j in self.basis.get(t, ())])
            Z = self._cycles[t] = gf2.kernel(self.boundary_matrix(t), units)
        return Z

    def boundaries(self, t: int) -> gf2.Matrix:
        """Columns spanning the boundaries landing in offset t."""
        return self.boundary_matrix(t + 1)

    def umap(self, vectors: gf2.Matrix, t: int, m: int) -> gf2.Matrix:
        """Apply U^m to chains at offset t, landing at t - 2m."""
        low = self.present.get(t - 2 * m, 0)
        return gf2.Matrix(self.n, [v & low for v in vectors.cols])

    def homology_dim(self, t: int) -> int:
        if t < self.stable_low:
            raise WindowError(f"grading {self.grading(t)} is below the truncation-stable "
                              f"window (stable down to {self.grading(self.stable_low)})")
        return (self.dim(t) - gf2.rank(self.boundary_matrix(t))
                - gf2.rank(self.boundary_matrix(t + 1)))

    def probe(self, parity: int) -> int:
        """Deepest stable offset <= bottom - 2 congruent to parity mod 2."""
        t = self.bottom - 2
        t -= (t - parity) % 2
        if t < self.stable_low:
            raise WindowError("truncation too small for a deep probe grading")
        return t

    def tower_rep(self, t: int) -> int | None:
        """A cycle at offset t that is nonzero in homology, or None."""
        B = gf2.Echelon(self.boundaries(t).cols)
        return next((z for z in self.cycles(t).cols if z not in B), None)


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


def validate(c: IotaComplex) -> Diagnostics:
    """Check every defining invariant; returns per-check diagnostics.

    iota^2 ~ id asks for a degree +1 map H with dH + Hd = iota^2 + id below
    U^N.  When iota^2 + id is itself 0 below U^N, every equation of that
    system is homogeneous and H = 0 solves it, so the check passes as
    "iota^2 = id exactly" without a solve.  This is the usual case: iota on
    the standard complex of a symmetric graded root is the reflection of the
    root, an honest involution, and tensor products and duals keep
    iota^2 = id.  Otherwise ``solve_homotopy`` looks for H.
    """
    checks = []
    bad = [g for g in c.gradings if (g - c.tau).denominator != 1]
    checks.append(("coset", not bad,
                   "all gradings differ from tau by integers" if not bad
                   else f"gradings {bad} not in tau + Z"))
    for check, _ in DEGREE_CHECKS:
        err = next((msg for name, msg in c.defects if name == check), None)
        checks.append((check, err is None, err or "ok"))
    structural_ok = all(ok for _, ok, _ in checks)
    if not structural_ok:
        return Diagnostics(tuple(checks))

    exp = Expanded(c.gradings, c.diff, c.truncation, c.tau)

    def first_nonzero(m: Map, degree: int) -> int | None:
        """First column of the degree-``degree`` map m with a term below U^truncation."""
        below = exp.below(exp.offsets, degree)
        return next((j for j, (col, keep) in enumerate(zip(m, below)) if col & keep),
                    None)

    j = first_nonzero(mat_mul(c.diff, c.diff), -2)
    checks.append(("d^2 = 0", j is None,
                   "ok" if j is None else f"d(d({c.labels[j]})) != 0"))

    j = first_nonzero(mat_add(mat_mul(c.iota, c.diff), mat_mul(c.diff, c.iota)), -1)
    checks.append(("iota chain map", j is None,
                   "ok" if j is None else "iota d != d iota"))

    identity = tuple(1 << j for j in range(c.n))
    square_plus_id = mat_add(mat_mul(c.iota, c.iota), identity)
    if first_nonzero(square_plus_id, 0) is None:
        # every equation dH + Hd = iota^2 + id below U^N is homogeneous
        checks.append(("iota^2 ~ id", True, "iota^2 = id exactly"))
    else:
        H = solve_homotopy(c, c, square_plus_id)
        checks.append(("iota^2 ~ id", H is not None,
                       "homotopy found" if H is not None else
                       "no homotopy H with dH + Hd = iota^2 + id"))

    tower_ok, detail = _single_tower_check(exp)
    checks.append(("single U-inverted tower", tower_ok, detail))
    return Diagnostics(tuple(checks))


def _single_tower_check(exp: Expanded) -> tuple[bool, str]:
    try:
        p_even = exp.probe(0)
        p_odd = exp.probe(1)
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
    convention, where the trivial complex is the unit.  The operands'
    defects are carried forward.
    """
    m = b.n  # generator x_i (x) y_k has index i * m + k
    labels = [f"{la}*{lb}" for la in a.labels for lb in b.labels]
    gradings = [ga + gb for ga in a.gradings for gb in b.gradings]

    def spread(col: int) -> int:
        """Bit i of a column of a, moved to bit i * m (the row x_i (x) y_0)."""
        return sum(1 << (i * m) for i in _bits(col))

    diff, iota = [], []
    for j, (da, ia) in enumerate(zip(map(spread, a.diff), map(spread, a.iota))):
        for k, (db, ib) in enumerate(zip(b.diff, b.iota)):
            diff.append((da << k) ^ (db << (j * m)))
            # the copies ib << (i * m) fill disjoint blocks of m bits, so the
            # integer product is their XOR
            iota.append(ia * ib)
    return graded_complex(labels, gradings, diff, iota, a.tau + b.tau,
                          a.defects + b.defects)


def _transpose(m: Map) -> Map:
    cols = [0] * len(m)
    for j, col in enumerate(m):
        for i in _bits(col):
            cols[i] |= 1 << j
    return tuple(cols)


def dual(a: IotaComplex) -> IotaComplex:
    """Dual complex: gradings negated, differential and iota transposed.

    An entry keeps its exponent, and the operand's defects are carried forward.
    """
    return graded_complex([f"{l}^" for l in a.labels], [-g for g in a.gradings],
                          _transpose(a.diff), _transpose(a.iota), -a.tau, a.defects)


@dataclass(frozen=True)
class ConeComplex:
    """Mapping cone of (1 + iota): C -> Q.C.

    Generators 0..n-1 are the un-decorated copies (grading raised by one),
    generators n..2n-1 the Q-decorated copies (original chain grading).
    The total differential is d + Q(1 + iota).
    """

    base: IotaComplex
    labels: tuple[str, ...]
    gradings: tuple[Grading, ...]
    diff: Map

    @property
    def n(self) -> int:
        return len(self.labels)


def mapping_cone(a: IotaComplex) -> ConeComplex:
    n = a.n
    labels = tuple(a.labels) + tuple(f"Q{l}" for l in a.labels)
    gradings = tuple(g + 1 for g in a.gradings) + tuple(a.gradings)

    # d(x_j) = d x_j + Q(x_j + iota x_j);  d(Q x_j) = Q d x_j
    diff = (tuple(col | ((iota_col ^ (1 << j)) << n)
                  for j, (col, iota_col) in enumerate(zip(a.diff, a.iota)))
            + tuple(col << n for col in a.diff))
    return ConeComplex(a, labels, gradings, diff)


# ---------------------------------------------------------------------------
# homology ranks


def homology_ranks(c, window, truncation: int | None = None) -> dict[Grading, int]:
    """Exact GF(2) homology dimensions at the gradings in ``window``.

    ``c`` may be an IotaComplex or a ConeComplex.  Gradings outside the
    truncation-stable range are refused with a WindowError.
    """
    if not isinstance(c, (IotaComplex, ConeComplex)):
        raise TypeError(f"not a complex: {c!r}")
    base = c if isinstance(c, IotaComplex) else c.base
    exp = Expanded(c.gradings, c.diff, truncation or base.truncation, base.tau)
    return {g: exp.homology_dim(exp.offset(g)) for g in window}


# ---------------------------------------------------------------------------
# correction terms
#
# The scans work in offsets from tau in the Expanded models, so tau has
# parity 0.  Each scan eliminates the boundaries at its probe grading once
# and reduces U^m (cycles at r) against that basis for every r.


def _d_scan(exp: Expanded) -> Grading:
    """Top of the U-inverted tower of H(C), from the model ``exp`` of C."""
    probe = exp.probe(0)
    B0 = gf2.Echelon(exp.boundaries(probe).cols)
    r = exp.top - exp.top % 2
    while r >= probe:
        V = exp.umap(exp.cycles(r), r, (r - probe) // 2)
        if any(v not in B0 for v in V.cols):
            return exp.grading(r)
        r -= 2
    raise RuntimeError("no tower class found; complex violates the tower axiom")


def _cone_scans(c: IotaComplex, base: Expanded) -> tuple[Grading, Grading]:
    """(d-bar, d-under) from the mapping cone, h-normalized convention.

    ``base`` is the model of C at the truncation wanted; its cycles give
    Q.(cycles of C), which sit in the cone as the same bits shifted by n.
    """
    cone = mapping_cone(c)
    exp = Expanded(cone.gradings, cone.diff, base.N, c.tau)

    def scan(parity: int, member_of_q_image: bool) -> int:
        probe = exp.probe(parity)
        B0 = gf2.Echelon(exp.boundaries(probe).cols)
        BQ = B0.copy()
        for z in base.cycles(probe).cols:
            BQ.add(z << c.n)
        r = exp.top - (exp.top - parity) % 2
        while r >= probe:
            V = exp.umap(exp.cycles(r), r, (r - probe) // 2).cols
            if member_of_q_image:
                # some U^m z nonzero in homology but in the image of Q:
                # dim(V & BQ) - dim(V & B0) = rank(V mod B0) - rank(V mod BQ)
                if B0.rank_mod(V) > BQ.rank_mod(V):
                    return r
            elif any(v not in BQ for v in V):
                # some U^m z surviving outside B + Q.cycles
                return r
            r -= 2
        raise RuntimeError("cone scan found no qualifying tower class")

    d_under = exp.grading(scan(1, member_of_q_image=False)) - 1
    d_bar = exp.grading(scan(0, member_of_q_image=True))
    return d_bar, d_under


def correction_terms(c: IotaComplex,
                     truncation: int | None = None) -> tuple[Grading, Grading, Grading]:
    """(d, d-bar, d-under), exact, stable under truncation refinement.

    The trivial complex returns (0, 0, 0).  Results are computed at N and at
    N+2 and must agree, otherwise TruncationUnstableError is raised.  A
    grading outside tau + Z raises ValueError.
    """
    N = truncation or c.truncation

    def at(n):
        base = Expanded(c.gradings, c.diff, n, c.tau)
        return (_d_scan(base), *_cone_scans(c, base))

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

    def declare(self, name, X: Map) -> None:
        """Register the entries of the variable map X, row by row.

        The solution sets free unknowns to 0, so which solution is returned
        depends on the unknowns' order; declaring them up front fixes it.
        """
        for i, j in sorted((i, j) for j, col in enumerate(X) for i in _bits(col)):
            self.var((name, i, j))

    def add_products(self, eq, L: Map, name, X: Map, R: Map, below: Map) -> None:
        """Add the entries of L.X + X.R that ``below`` keeps to equations (eq, i, j).

        Bit i of column j of X is the unknown (name, i, j): the coefficient
        of x_i in X(x_j), which is 0 or 1.  ``below`` masks the entries of
        the product's degree that lie below U^N: it is ``Expanded.below``
        of the target's model, read off ``Expanded.present``.
        """
        cols, eqn = self.cols, self.eq
        # column j of X as (i, index of the unknown (name, i, j))
        xv = [[(i, self.var((name, i, j))) for i in _bits(col)] for j, col in enumerate(X)]
        rows = [tuple(_bits(col)) for col in L]
        for j, (col, keep) in enumerate(zip(xv, below)):
            for l, v in col:
                for i in rows[l]:
                    if keep >> i & 1:
                        cols[v] ^= 1 << eqn((eq, i, j))
        for j, (col, keep) in enumerate(zip(R, below)):
            for l in _bits(col):
                for i, v in xv[l]:
                    if keep >> i & 1:
                        cols[v] ^= 1 << eqn((eq, i, j))

    def solve(self) -> dict | None:
        x = gf2.solve_affine(gf2.Matrix(len(self.eqs), self.cols), self.rhs)
        if x is None:
            return None
        return {k: x >> v & 1 for k, v in self.vars.items()}


def _chosen(sol: dict, name, X: Map) -> Map:
    """The entries of the variable map X that the solution sets to 1."""
    return tuple(sum(1 << i for i in _bits(col) if sol[(name, i, j)])
                 for j, col in enumerate(X))


def solve_homotopy(a: IotaComplex, b: IotaComplex, rhs: Map) -> Map | None:
    """Solve d_b H + H d_a = rhs for a degree +1 map H: a -> b, mod U^N.

    ``rhs`` is a degree-0 map a -> b.  A grading of b outside a.tau + Z
    raises ValueError.
    """
    eb = Expanded(b.gradings, b.diff, max(a.truncation, b.truncation), a.tau)
    oa = _offsets(a.gradings, eb.base)
    H = eb.below(oa, 1)
    below = eb.below(oa, 0)
    sys = _System()
    sys.declare("h", H)
    sys.add_products("e", b.diff, "h", H, a.diff, below)
    for j, (col, keep) in enumerate(zip(rhs, below)):
        for i in _bits(col & keep):
            sys.set_rhs(("e", i, j))
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
    N = default_truncation(a.gradings + b.gradings)
    # both models count offsets from a.tau, so they share gradings
    ea = Expanded(a.gradings, a.diff, N, a.tau)
    eb = Expanded(b.gradings, b.diff, N, a.tau)
    probe = min(ea.probe(0), eb.probe(0))
    if probe < max(ea.stable_low, eb.stable_low):
        raise WindowError("no common deep probe grading; increase truncation")
    za = ea.tower_rep(probe)
    zb = eb.tower_rep(probe)
    if za is None or zb is None:
        raise RuntimeError("missing deep tower class")

    F = eb.below(ea.offsets, 0)
    H = eb.below(ea.offsets, 1)
    nf, nh = (sum(col.bit_count() for col in X) for X in (F, H))
    w_dim = eb.dim(probe + 1)
    if (nf + nh + w_dim) > max_unknowns:
        raise SearchSizeError(
            f"local-map system too large: {nf} F-vars, "
            f"{nh} H-vars, {w_dim} slack vars (limit {max_unknowns})")

    sys = _System()
    sys.declare("f", F)
    sys.declare("h", H)
    # (1) chain-map condition: d_b F + F d_a = 0
    sys.add_products("c", b.diff, "f", F, a.diff, eb.below(ea.offsets, -1))
    # (2) iota-commutation up to homotopy: iota_b F + F iota_a + d_b H + H d_a = 0;
    # these products have degree 0, so F is their mask below U^N
    sys.add_products("q", b.iota, "f", F, a.iota, F)
    sys.add_products("q", b.diff, "h", H, a.diff, F)
    # (3) tower pinning: F(z_a) + d_b(w) = z_b at the probe grading, one
    # equation ("p", i) per generator y_i of b there
    at_probe = eb.present.get(probe, 0)
    for j in _bits(za):
        for i in _bits(F[j] & at_probe):
            sys.toggle(("p", i), ("f", i, j))
    for j, col in zip(eb.basis.get(probe + 1, ()), eb.boundary_matrix(probe + 1).cols):
        for i in _bits(col):
            sys.toggle(("p", i), ("w", j))
    for i in _bits(zb):
        sys.set_rhs(("p", i))

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
    def mat(m: Map, degree: int) -> list:
        """Row i, column j: [e] if U^e x_i is the x_i-term of the image of x_j, else []."""
        g = c.gradings
        return [[[(g[i] - g[j] - degree) // 2] if m[j] >> i & 1 else []
                 for j in range(c.n)] for i in range(c.n)]

    return {
        "labels": list(c.labels),
        "gradings": [str(g) for g in c.gradings],
        "tau": str(c.tau),
        "truncation": c.truncation,
        "differential": mat(c.diff, -1),
        "iota": mat(c.iota, 0),
    }
