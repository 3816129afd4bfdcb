"""Finite free chain complexes over GF(2)[U] with a homotopy involution.

The engine here is the brute-force oracle for everything else in the package:
tensor products, duals, the involutive mapping cone, homology ranks, the three
correction terms (d, d-bar, d-under), and a feasibility search for local maps.

Conventions
-----------
* U has degree -2; the differential has degree -1; the involution degree 0.
* Gradings are exact, int or ``Fraction``, so no float appears; all are
  congruent to ``tau`` mod 1, and the U-inverted homology tower lives in
  ``tau + 2Z``.  A complex stores them as int offsets from tau, read once
  by ``graded_complex``, which refuses a grading outside ``tau + Z`` with a
  ValueError that names it; ``tensor``, ``dual`` and ``_cone_levels``
  derive theirs in int arithmetic.
* Complexes are stored in the "h-normalized" convention in which the trivial
  one-generator complex plays the role of the 3-sphere and has
  (d, d-bar, d-under) = (0, 0, 0).
* Maps: every graded map (differential, involution, cone differential,
  homotopy, local map) is a ``Map``, a tuple of ints with one column per
  source generator: bit i of column j means that x_i occurs in the image of
  x_j.  In a graded map of degree deg each entry is 0 or a single U^e, and
  the gradings fix e = (g_i - g_j - deg)/2, so the exponent is never stored;
  serialization reads it off the gradings.  Addition XORs columns, and
  composition XORs the columns of the left map that the bits of the right
  one select: the exponents add by themselves.  Raw input is the one place
  with explicit exponents, in the dense row-major layout that
  ``complex_to_json`` writes.  ``iota_complex`` reads them once into bits
  and refuses a term of the wrong degree with a ValueError.
* The involution: ``validate`` checks iota^2 ~ id.  On the complexes built
  here (standard complexes of symmetric graded roots, where iota reflects
  the root, and their tensor products and duals) iota^2 = id exactly, and
  then H = 0 is the homotopy and no system is solved; any other iota goes
  through ``solve_homotopy``.
* Correction terms without truncation: ``correction_terms(c)`` reads them
  off L = C/(U - 1), the GF(2) complex on the generators whose differential
  is ``diff`` with every U set to 1, by ``_tower_tops``; ``homology_ranks``
  reads the same elimination, ``_eliminate``, and ``validate``'s tower
  check (``_single_tower_check``) only the rank of d on L:

  - A chain at offset t of the untruncated complex has at most one term
    U^k x_i per generator, so it is the chain of L on the generators x_i
    with off_i >= t and off_i = t mod 2, and d commutes with setting U = 1.
    It is a cycle iff its image in L is one.
  - A cycle z at t is U-torsion iff U^m z = d w for some m and w, iff z is
    a boundary in C (x) GF(2)[U, U^-1], whose chain group at t is all of
    L in the parity of t; so iff its image is a boundary of L.
  - With F_t the span of the generators at offsets >= t, H at t has a
    U-nontorsion class iff dim(Z(L) n F_t) > dim(B(L) n F_t) in the parity
    of t.  The top of the free part in parity p is the largest such t.
  - d is the even top of C.  The mapping cone has the Q-copies at the
    gradings of C and the others one higher.  On the one U-localized tower
    of C (the tower axiom) iota is the identity, so 1 + iota is 0 there,
    and deep in the even parity the homology of the cone is Q.(the tower).
    So d-bar, the top of a cycle whose U^m-image is nonzero and in the
    image of Q, is the even top of the cone.  Deep in the odd parity
    H(C) = 0, so Q.(cycles of C) are boundaries: Q.dw = d_cone(Qw).  So
    d-under, one below the top of a cycle whose U^m-image survives outside
    boundaries + Q.(cycles), is the odd top minus 1.  These are the
    definitions the truncated scans ``_d_scan`` and ``_cone_scans`` read at
    their probe gradings.
  - The cone's elimination may start from C's.  It visits levels
    descending and bits ascending, so on a level the copies of C come
    before the Q-copies, and the Q-copies among themselves come in C's own
    order.  Let red_j be the vector that x_j's column reduced to in C's
    elimination (0 if it reduced to 0): d x_j plus boundaries of the columns
    C eliminated before x_j (higher levels, and lower bits on x_j's level),
    whose Q-copies the cone has already eliminated.  So starting the Q-copy
    of x_j from red_j << n instead of Q.d x_j changes each column only by
    a sum of earlier columns: the span after each column, and with it every
    lead, size and rank of the cone's elimination, is unchanged.
* Truncation: a complex holds no N, and ``validate``, ``solve_homotopy``,
  ``homology_ranks``, the correction terms and the local-map search
  (``find_local_map``, ``locally_equivalent``) are exact and read none.
  A positive integer N only governs how far an ``Expanded`` model expands
  the basis {U^k x : k < N}, and only the reference scans build one:
  ``_d_scan`` and ``_cone_scans`` read the models of C and of its mapping
  cone at N (``tests/dense_reference.truncated_correction_terms``), the
  slow independent reference for the exact pass above.  Their triple is
  that of the untruncated complex C (x) GF(2)[U]:

  - At truncation N, the chain group at offset t is complete (equal to that
    of the untruncated complex) for every t >= ``stable_low`` - 1 =
    top - 2N + 1.  For t >= top - 2N + 2, each x_i reaches t at
    k = (off_i - t)/2 <= N - 1.  At t = top - 2N + 1, only generators of
    the parity of top - 1 reach t, and they have off_i <= top - 1, so again
    k <= N - 1.
  - The scans read chain groups only at offsets >= probe - 1, for the base
    model and for the cone model, and ``Expanded.probe`` raises WindowError
    unless probe >= ``stable_low``.
  - So every boundary matrix, cycle space and U-map the scans read is that
    of the untruncated complex.  Below ``bottom``, the homology is the tower
    alone.
  - The triple therefore does not depend on N: at N + 2 the scans would
    read the same groups.  ``tests/test_differential.py`` checks this from
    the smallest N the probe admits up to past the default.

  ``validate``, ``solve_homotopy`` and ``find_local_map`` solve the same
  systems as their references in ``tests/dense_reference.py`` (the local-map
  search decides feasibility on a gauge-fixed subsystem with the same
  verdict, and its witness solves the full system), which build
  truncated models at N = ceil(span/2) + 6, span the spread of all the
  gradings involved, and mask every map and product below U^N:

  - An entry (i, j) of a degree-k map is U^e with
    e = (off_i - off_j - k)/2 >= 0.  The systems read maps of degree
    k >= -2 (d^2, iota, the local map F, the homotopy H), so
    e <= span/2 + 1 < N: the masks drop no unknown and no term of any
    product.
  - The truncated tower check and local-map search read a deep probe
    grading t at least 2 below every bottom and at most 3 below the lowest,
    so t - 1 >= top - 2N + 1: the chain groups at t - 1, t and t + 1 are
    complete, and each is a whole parity class with the differential of L:
    ``_single_tower_check`` reads the rank of that differential and
    ``IotaComplex._tower`` eliminates it.  The reference search's slack ranges
    over the target's whole odd class, and its tower representatives come
    from the same two eliminations in the same kernel order, so the pinned
    z_a and z_b are the same.
* Chains: a generator x_i contributes at most one basis element U^k x_i to
  a grading, so a chain at a grading is an int with bit i set for x_i (see
  ``gf2``), just like a map column.  U^m is a mask, and Q.(chains of C) in
  the mapping cone is a shift by n.  The local-map and homotopy searches
  are int-column systems in Kronecker layout (``_kron_columns``): the
  equation for entry (i, j) of a map into n generators is bit j.n + i,
  since vec(L.X + X.R) = (I (x) L + R^T (x) I) vec X, and each unknown's
  column is two shifts and one XOR.  The row numbering does not change the
  solution, which depends only on the order of the unknowns.
* Bit scans: the kernels that the local-map search and ``validate`` spend
  their time in (``mat_mul``, ``_spread``, ``_kron_columns``, the level
  scan of ``_eliminate``, ``IotaComplex._tower`` and ``tensor``'s column
  spread) walk the set bits of an int inline, ``low = v & -v`` ...
  ``v ^= low``, because the generator ``_bits`` resumes one frame per set
  bit; ``_bits`` serves the cold callers.  On a seed-11
  ``local_equivalence`` round of the benchmark (41 ops, best of 12,
  CPython 3.11, shared 2-core x86-64 machine) the local-map columns took
  5.4-5.9 ms instead of 6.7-7.2 ms, and the whole round, with
  ``validate``'s two products, 18.4-18.8 ms instead of 21.5-21.8 ms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from . import gf2
from .localclass import EXACT, Grading, _exact, rational

Map = tuple[int, ...]


class WindowError(ValueError):
    """Raised when a truncated model is probed below its truncation-stable range."""


class SearchSizeError(ValueError):
    """A local-map or homotopy system would have more than
    MAX_LOCAL_MAP_UNKNOWNS unknowns."""


MAX_LOCAL_MAP_UNKNOWNS = 6000  # F, H and slack unknowns of one system


# ---------------------------------------------------------------------------
# construction helpers


def _bits(v: int):
    """Indices of the set bits of v, lowest first (the hot loops scan
    inline: "Bit scans", module docstring)."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _read_map(m, labels, gradings, degree: int) -> Map:
    """Read a raw n x n map of the given degree into bit columns.

    ``m[i][j]`` is the coefficient of x_i in the image of x_j: an int (its
    parity: 0 or 1) or an iterable of U-exponents, the layout that
    ``complex_to_json`` writes.  Each listed exponent is one term, and
    repeated terms cancel in pairs, as over GF(2).  A map that is not
    n x n, an entry that is neither (a bool, a float or a string is not),
    a negative exponent or a term of another degree (the first, by
    column, then row and exponent) raises ValueError, whether or not the
    term cancels.
    """
    n = len(labels)
    if len(m) != n:
        raise ValueError(f"map has {len(m)} rows, expected {n}")
    cols = [[] for _ in range(n)]
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError(f"map row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            # a scalar that is not an int, or a string, stands as its own bad term
            exps = ((0,) if v % 2 else ()) if type(v) is int else tuple(v) if (
                isinstance(v, Iterable) and not isinstance(v, (str, bytes))) else (v,)
            if any(type(e) is not int for e in exps):
                raise ValueError(f"map row {i}, column {labels[j]}: entry {v!r} is "
                                 "not an int or an iterable of int exponents")
            cols[j].extend((i, e) for e in exps)
    out = []
    for j, col in enumerate(cols):
        bits = 0
        for i, e in sorted(col):
            if e < 0:
                raise ValueError(f"map entry (row {i}, exponent {e}) in column "
                                 f"{labels[j]}: an exponent must be >= 0")
            if gradings[i] - 2 * e != gradings[j] + degree:
                raise ValueError(f"map of degree {degree}: entry ({labels[i]}, "
                                 f"{labels[j]}) exponent {e}: grading "
                                 f"{gradings[i]} - {2*e} != {gradings[j]} + ({degree})")
            bits ^= 1 << i
        out.append(bits)
    return tuple(out)


def mat_mul(a: Map, b: Map) -> Map:
    """Composition a.b: x_k in b(x_j) and x_i in a(x_k) give x_i in a(b(x_j))."""
    out = []
    for col in b:
        acc = 0
        while col:
            low = col & -col
            acc ^= a[low.bit_length() - 1]
            col ^= low
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class IotaComplex:
    """A free GF(2)[U]-complex with involution.

    ``offsets[i]`` is the int offset of the grading g_i of x_i from ``tau``,
    and ``gradings`` the exact gradings tau + offsets[i].  ``diff`` and
    ``iota`` are bit-column maps of degree -1 and 0: bit i of ``diff[j]``
    means that U^e x_i, with e = (g_i - g_j + 1)/2, is a term of the
    boundary of x_j (and likewise for ``iota``, with e = (g_i - g_j)/2).

    The constructor refuses with ValueError a complex with no generators,
    fields of different lengths, a tau that is not an int or ``Fraction``
    (a bool is neither), and a negative column or one with a bit at a row
    >= n; it reads only lengths, types and the extreme columns, so no bit
    is visited.  That every term has its map's degree is the caller's
    precondition: ``iota_complex`` checks it where terms arrive as
    exponents, and ``tensor`` and ``dual`` keep it.

    What the local-map search and ``validate`` read off a complex is derived
    on first read and then kept, so a complex that takes part in several
    searches pays for it once, and one that is only an intermediate
    product pays nothing: the per-parity index behind ``_at_or_below`` and
    ``_classes``, and the deep tower representative ``_tower``.  They take
    no part in ==, hash or repr.
    """

    labels: tuple[str, ...]
    offsets: tuple[int, ...]
    diff: Map
    iota: Map
    tau: Grading

    def __post_init__(self):
        n = len(self.labels)
        if not n or not n == len(self.offsets) == len(self.diff) == len(self.iota):
            raise ValueError("a complex needs at least one generator, and for each a "
                             "grading, a differential column and an involution column")
        if type(self.tau) not in EXACT:
            raise ValueError(f"tau {self.tau!r} is not an int or a Fraction: "
                             "gradings are exact")
        for name, m in (("differential", self.diff), ("involution", self.iota)):
            if min(m) < 0 or max(m) >> n:
                raise ValueError(f"a {name} column has a bit outside the rows "
                                 f"0..{n - 1} of the generators")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def gradings(self) -> tuple[Grading, ...]:
        return tuple(self.tau + t for t in self.offsets)

    @cached_property
    def _index(self) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
        """(grades, prefix): per parity p, the offsets of parity p ascending,
        and prefix[p][k], the mask of the generators at the lowest k of them."""
        grades, prefix = ([], []), ([0], [0])
        for t, mask in zip(*_levels(self.offsets)):
            grades[t % 2].append(t)
            prefix[t % 2].append(prefix[t % 2][-1] | mask)
        return grades, prefix

    def _at_or_below(self, t: int) -> int:
        """The generators at offsets t, t - 2, t - 4, ..., by one bisect of
        the offsets of t's parity, so no table spans the gradings."""
        grades, prefix = self._index
        return prefix[t % 2][bisect_right(grades[t % 2], t)]

    @cached_property
    def _classes(self) -> tuple[int, int]:
        """The masks of the generators at even and at odd offsets."""
        return tuple(prefix[-1] for prefix in self._index[1])

    @cached_property
    def _tower(self) -> int:
        """The deep tower representative: the first cycle of the even class
        of L = C/(U - 1), in kernel order (generators ascending), that is not
        a boundary; one elimination over the boundaries of the odd class and
        one over the even class.  With no such cycle, ``_refusal`` names the
        failed ``validate`` check (the error is raised again on each read)."""
        d = self.diff
        even, odd = self._classes
        boundaries = gf2.Echelon()
        while odd:
            low = odd & -odd
            boundaries.add(d[low.bit_length() - 1])
            odd ^= low
        cycles = gf2.Echelon()
        while even:
            low = even & -even
            v, z = cycles.add(d[low.bit_length() - 1], low)
            if not v and z not in boundaries:
                return z
            even ^= low
        raise _refusal(self, "missing deep tower class")


def _require_complex(*cs) -> None:
    """Raise TypeError unless every argument is an IotaComplex."""
    for c in cs:
        if not isinstance(c, IotaComplex):
            raise TypeError(f"not a complex: {c!r}")


def graded_complex(labels, gradings, diff: Map, iota: Map, tau: Grading) -> IotaComplex:
    """An IotaComplex from exact gradings and graded bit-column maps (every
    bit a term of the right degree), reading the gradings into offsets from
    tau once.  A tau or grading that is not an int or ``Fraction`` (a bool
    is neither) or a grading outside tau + Z raises ValueError, and so does
    whatever ``IotaComplex`` refuses: an empty complex, lengths that differ
    or a column with a bit outside the generators."""
    for g in (tau, *gradings):
        if type(g) not in EXACT:
            raise ValueError(f"grading {g!r} is not an int or a Fraction: "
                             "gradings are exact")
    return IotaComplex(tuple(labels), tuple(_offsets(gradings, tau)), tuple(diff),
                       tuple(iota), tau)


def iota_complex(labels, gradings, diff, iota, tau=None) -> IotaComplex:
    """Build an IotaComplex from raw maps; ``diff`` and ``iota`` are read by ``_read_map``.

    tau defaults to the first grading.  The gradings and tau are read by
    ``localclass.rational`` and kept as ints when they are integral.  An
    empty complex, a grading outside tau + Z, a term of the wrong degree or
    a negative exponent raises ValueError.
    """
    labels = tuple(labels)
    gradings = tuple(map(_exact, gradings))
    if not labels or len(gradings) != len(labels):
        raise ValueError("a complex needs at least one generator, and one grading for each")
    tau = gradings[0] if tau is None else _exact(tau)
    return graded_complex(labels, gradings, _read_map(diff, labels, gradings, -1),
                          _read_map(iota, labels, gradings, 0), tau)


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


def _levels(offsets: list[int]) -> tuple[list[int], list[int]]:
    """The distinct offsets, ascending, and the mask of the generators at each."""
    levels: dict[int, int] = {}
    for i, t in enumerate(offsets):
        levels[t] = levels.get(t, 0) | 1 << i
    grades = sorted(levels)
    return grades, [levels[t] for t in grades]


def _cone_levels(grades: list[int], masks: list[int],
                 n: int) -> tuple[list[int], list[int]]:
    """``_levels`` of the offsets of the mapping cone of c, from the levels
    of the n generators of c: cone level t holds the undecorated copies of
    c's level t - 1 and the Q-copies (bits shifted by n) of its level t."""
    levels = {t + 1: mask for t, mask in zip(grades, masks)}
    for t, mask in zip(grades, masks):
        levels[t] = levels.get(t, 0) | mask << n
    cone = sorted(levels)
    return cone, [levels[t] for t in cone]


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
    * ``offsets[i]`` is the offset of x_i.
    """

    def __init__(self, gradings, diff: Map, truncation: int, tau):
        self.base = tau
        self.offsets = off = _offsets(gradings, self.base)
        self.N = N = truncation
        self.top = max(off)
        self.bottom = min(off)
        # homology at offset t needs complete chain groups at t+1, t, t-1
        self.stable_low = self.top - 2 * N + 2
        self.dbits = diff
        masks = dict(zip(*_levels(off)))
        self.present: dict[int, int] = {}
        for t in range(self.top, self.bottom - 2 * N + 1, -1):
            # present[t] = masks[t] + masks[t+2] + ... + masks[t + 2N - 2]
            mask = self.present.get(t + 2, 0) ^ masks.get(t, 0) ^ masks.get(t + 2 * N, 0)
            if mask:
                self.present[t] = mask
        self.basis = {t: tuple(_bits(m)) for t, m in self.present.items()}

    def grading(self, t: int) -> Grading:
        return self.base + t

    def dim(self, t: int) -> int:
        return self.present.get(t, 0).bit_count()

    def boundary_matrix(self, t: int) -> list[int]:
        """The differential from offset t to t-1, one column per basis[t]."""
        below = self.present.get(t - 1, 0)
        return [self.dbits[j] & below for j in self.basis.get(t, ())]

    def cycles(self, t: int) -> list[int]:
        return gf2.kernel(self.boundary_matrix(t), [1 << j for j in self.basis.get(t, ())])

    def boundaries(self, t: int) -> list[int]:
        """Columns spanning the boundaries landing in offset t."""
        return self.boundary_matrix(t + 1)

    def umap(self, vectors: list[int], t: int, m: int) -> list[int]:
        """Apply U^m to chains at offset t, landing at t - 2m."""
        low = self.present.get(t - 2 * m, 0)
        return [v & low for v in vectors]

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
        B = gf2.Echelon(self.boundaries(t))
        return next((z for z in self.cycles(t) if z not in B), None)


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
    """Four diagnostics of the algebra: d^2 = 0, iota a chain map, iota^2 ~ id
    and a single U-inverted tower.  The constructors refuse bad gradings
    and map degrees, so those need no check.

    iota^2 ~ id asks for a degree +1 map H with dH + Hd = iota^2 + id.  When
    iota^2 + id is itself 0, H = 0 solves that system and the check passes
    as "iota^2 = id exactly" without a solve.  This is the usual case: iota
    on the standard complex of a symmetric graded root reflects the root,
    and tensor products and duals keep iota^2 = id.  Otherwise
    ``solve_homotopy`` looks for H, and its SearchSizeError on a system
    over the budget comes through.

    The four products dd, iota d, d iota and iota iota come from two
    ``mat_mul`` calls, which read the bits of d and of iota once each: the
    stacked map with column j = d x_j + (iota x_j shifted up by n rows),
    times d and times iota, holds dd and d iota on rows 0..n-1 and iota d
    and iota iota above.  On the 122 complexes of the benchmark's
    ``local_equivalence`` pairs the three algebra checks take 4.3 ms, and
    5.3 ms with four products and three map sums (best of 7, CPython 3.11,
    shared 2-core x86-64 machine).

    The checks test whole columns and build no truncated model; the
    module docstring's "Truncation" bullet says why they agree with the
    truncated checks.
    """
    _require_complex(c)
    checks = []
    n, low = c.n, (1 << c.n) - 1
    stack = tuple(dc | ic << n for dc, ic in zip(c.diff, c.iota))
    sd, si = mat_mul(stack, c.diff), mat_mul(stack, c.iota)

    j = next((j for j, col in enumerate(sd) if col & low), None)
    checks.append(("d^2 = 0", j is None,
                   "ok" if j is None else f"d(d({c.labels[j]})) != 0"))

    commutes = not any((x >> n) ^ (y & low) for x, y in zip(sd, si))
    checks.append(("iota chain map", commutes,
                   "ok" if commutes else "iota d != d iota"))

    square_plus_id = tuple((col >> n) ^ (1 << j) for j, col in enumerate(si))
    if not any(square_plus_id):
        # every equation dH + Hd = iota^2 + id is homogeneous
        checks.append(("iota^2 ~ id", True, "iota^2 = id exactly"))
    else:
        H = solve_homotopy(c, c, square_plus_id)
        checks.append(("iota^2 ~ id", H is not None,
                       "homotopy found" if H is not None else
                       "no homotopy H with dH + Hd = iota^2 + id"))

    tower_ok, detail = _single_tower_check(c)
    checks.append(("single U-inverted tower", tower_ok, detail))
    return Diagnostics(tuple(checks))


def _refusal(c: IotaComplex, bug: str) -> Exception:
    """The error for a tower computation that failed on c: a ValueError
    naming the first failed ``validate`` check and its detail, or, if c
    passes every check, RuntimeError(bug), since then the failure is a bug.
    Only the failure path runs ``validate``."""
    failed = validate(c).failed()
    if not failed:
        return RuntimeError(bug)
    name, detail = failed[0]
    return ValueError(f"not an iota-complex: check {name!r} fails ({detail})")


def _single_tower_check(c: IotaComplex) -> tuple[bool, str]:
    """(ok, detail) from the deep homology of C: dim H of L = C/(U - 1) on a
    parity class is |class| - rank(d on it) - rank(d on the other class).

    d has degree -1, so it maps each parity class into the other: the
    images of the two classes lie on disjoint bits, and the rank of d is
    the sum of the two ranks.  So both dimensions are |class| - rank(d),
    and one tag-free ``gf2.rank`` of all the columns gives them, the sum
    that the lowest level of ``_eliminate`` reads.  The classes are the
    complex's own (``IotaComplex._classes``), as the local-map search
    reads them.
    """
    rank = gf2.rank(c.diff)
    odd = c._classes[1].bit_count()
    d_even, d_odd = c.n - odd - rank, odd - rank
    ok = d_even == 1 and d_odd == 0
    return ok, (f"deep homology ranks: {d_even} in tau-parity, {d_odd} off-parity")


# ---------------------------------------------------------------------------
# constructions


def tensor(a: IotaComplex, b: IotaComplex) -> IotaComplex:
    """Tensor product over GF(2)[U]; gradings add, iota = iota_a (x) iota_b.

    No grading shift is applied: classes are stored in the h-normalized
    convention, where the trivial complex is the unit.

    The cost is one ``spread`` per column of ``a``, bit by bit, and one
    shift and XOR per generator of the product, so the smaller operand goes
    on the left.  The product is associative in every field (labels,
    offsets, index i * m + k, bit columns and tau), so a product of several
    factors may be grouped to keep the left operands small.
    """
    _require_complex(a, b)
    m = b.n  # generator x_i (x) y_k has index i * m + k
    labels = tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels)
    offsets = tuple(oa + ob for oa in a.offsets for ob in b.offsets)

    def spread(col: int) -> int:
        """Bit i of a column of a, moved to bit i * m (the row x_i (x) y_0)."""
        out = 0
        while col:
            low = col & -col
            out |= 1 << (low.bit_length() - 1) * m
            col ^= low
        return out

    diff, iota = [], []
    for j, (da, ia) in enumerate(zip(map(spread, a.diff), map(spread, a.iota))):
        for k, (db, ib) in enumerate(zip(b.diff, b.iota)):
            diff.append((da << k) ^ (db << (j * m)))
            # the copies ib << (i * m) fill disjoint blocks of m bits, so the
            # integer product is their XOR
            iota.append(ia * ib)
    return IotaComplex(labels, offsets, tuple(diff), tuple(iota), a.tau + b.tau)


def dual(a: IotaComplex) -> IotaComplex:
    """Dual complex: gradings negated, differential and iota transposed
    (``_spread`` with n = 1), an entry keeping its exponent."""
    _require_complex(a)
    return IotaComplex(tuple(f"{l}^" for l in a.labels), tuple(-t for t in a.offsets),
                       tuple(_spread(a.diff, a.n, 1)), tuple(_spread(a.iota, a.n, 1)),
                       -a.tau)


def _cone_columns(a: IotaComplex, q_cols) -> Map:
    """The columns of the mapping cone of (1 + iota): C -> Q.C, whose
    differential is d + Q(1 + iota).  Generators 0..n-1 are the undecorated
    copies (grading raised by one), n..2n-1 the Q-copies (grading kept):
    d(x_j) = d x_j + Q(x_j + iota x_j), then ``q_cols[j]`` shifted by n for
    Q x_j (Q d x_j when q_cols is a.diff)."""
    n = a.n  # a property: read once, not per column
    return (tuple(col | ((iota_col ^ (1 << j)) << n)
                  for j, (col, iota_col) in enumerate(zip(a.diff, a.iota)))
            + tuple(col << n for col in q_cols))


# ---------------------------------------------------------------------------
# homology ranks: one elimination of L = C/(U - 1)


def _eliminate(grades: list[int], masks: list[int], diff: Map,
               reduced: list[int] | None = None):
    """One elimination of the columns of L = C/(U - 1), level by level in
    descending grading, a level being the generators at one offset: the
    distinct offsets ``grades``, ascending, and the mask of the generators
    at each, as ``_levels`` or ``_cone_levels`` gives them.

    Returns (sizes, ranks, leads): per level k, the number ``sizes[k][p]``
    and rank ``ranks[k][p]`` of the columns of parity p at or above it and
    ``leads[k]``, the B(L) basis vectors led in it; then ``sizes`` and
    ``ranks`` of (0, 0) above the top.

    A vector's lead is its highest bit inside the lowest level it touches,
    so a basis with one vector per lead spans B n F_t, F_t the span of the
    generators at offsets >= t, with the vectors whose leads lie in F_t.
    Reducing by the vector of the same lead never lowers that level, so the
    level index only moves up.  ``gf2.Echelon`` leads with the highest bit
    overall, which would need the bits permuted into grading order; with
    the rows so renumbered, ``correction_terms`` plus ``validate``'s tower
    check, when that still read this elimination, ran 2.3 times slower
    through it on four class complexes.  The two parities' columns have
    images on disjoint bits and share the basis.

    If ``reduced`` is a list, ``reduced[j]`` becomes the vector column j
    reduced to: the basis vector it inserted, or 0.  ``correction_terms``
    starts the cone's Q-copies from them.
    """
    pivots: dict[int, int] = {}  # bit_length of the lead -> vector
    leads = [0] * len(grades)
    size, rank = [0, 0], [0, 0]
    sizes, ranks = [(0, 0)] * (len(grades) + 1), [(0, 0)] * (len(grades) + 1)
    for k in range(len(grades) - 1, -1, -1):
        p = grades[k] % 2
        # a boundary of a column at t has terms at offsets >= t - 1 only
        low = max(k - 1, 0)
        level = masks[k]
        while level:
            bit = level & -level
            level ^= bit
            j = bit.bit_length() - 1
            v, i = diff[j], low
            while v:
                part = v & masks[i]
                if not part:
                    i += 1
                    continue
                h = part.bit_length()
                q = pivots.get(h)
                if q is None:
                    pivots[h] = v
                    leads[i] += 1
                    rank[p] += 1
                    break
                v ^= q
            if reduced is not None:
                reduced[j] = v
        size[p] += masks[k].bit_count()
        sizes[k], ranks[k] = tuple(size), tuple(rank)
    return sizes, ranks, leads


def homology_ranks(c: IotaComplex, window) -> dict[Grading, int]:
    """Exact GF(2) homology dimensions at the gradings in ``window``, keyed
    by the gradings as read by ``localclass.rational`` (a zero denominator
    or a grading off tau + Z is a ValueError).

    ``c`` is an IotaComplex, whose ``iota`` is not read; no model is built.
    The chain group C_t at offset t is that of L on the generators at
    offsets >= t of t's parity ("Correction terms without truncation"), so
    dim H_t = |C_t| - rank d(C_t) - rank d(C_{t+1}) is read off the first
    level of ``_eliminate`` at or above t: none of t + 1's parity sits at t.
    """
    _require_complex(c)
    grades, masks = _levels(c.offsets)
    sizes, ranks, _ = _eliminate(grades, masks, c.diff)
    gradings = [rational(g) for g in window]
    out = {}
    for g, t in zip(gradings, _offsets(gradings, c.tau)):
        k, p = bisect_left(grades, t), t % 2
        out[g] = sizes[k][p] - ranks[k][p] - ranks[k][1 - p]
    return out


# ---------------------------------------------------------------------------
# correction terms
#
# Both paths work in offsets from tau, so tau has parity 0.  The exact pass
# eliminates L = C/(U - 1) once per complex; the truncated scans, the
# reference, work in the Expanded models: each eliminates the boundaries at
# its probe grading once and reduces U^m (cycles at r) against that basis
# for every r.


def _tower_tops(grades: list[int], masks: list[int], diff: Map,
                reduced: list[int] | None = None) -> tuple[int | None, int | None]:
    """(even top, odd top) of the free part of H(C (x) GF(2)[U]), or None:
    the highest level of parity p of ``_eliminate`` where dim(Z n F_t) =
    size - rank exceeds dim(B n F_t), the leads of parity p at or above it
    (proof: "Correction terms without truncation", module docstring).
    ``reduced`` goes to ``_eliminate``.
    """
    sizes, ranks, leads = _eliminate(grades, masks, diff, reduced)
    tops: list[int | None] = [None, None]
    bounds = [0, 0]
    for k in range(len(grades) - 1, -1, -1):
        p = grades[k] % 2
        bounds[p] += leads[k]
        if tops[p] is None and sizes[k][p] - ranks[k][p] > bounds[p]:
            tops[p] = grades[k]
    return tops[0], tops[1]


def _scan(exp: Expanded, probe: int, spans: list[list[int]], survives) -> int:
    """The first offset r, from the top of the probe's parity down to the
    probe, where ``survives`` holds of the gains over ``spans`` of V =
    U^m(cycles at r) pushed down to the probe, m = (r - probe)/2.  The gain
    of V over a span S is rank(S + V) - rank(S), the dimension V adds to S;
    the rank of each S is taken once."""
    ranks = [gf2.rank(S) for S in spans]
    for r in range(exp.top - (exp.top - probe) % 2, probe - 1, -2):
        V = exp.umap(exp.cycles(r), r, (r - probe) // 2)
        if survives(*(gf2.rank(S + V) - s for S, s in zip(spans, ranks))):
            return r
    raise RuntimeError("no tower class found; complex violates the tower axiom")


def _d_scan(exp: Expanded) -> Grading:
    """Top of the U-inverted tower of H(C), from the model ``exp`` of C: the
    first even r whose V (``_scan``) gains over B, the boundaries at the
    probe."""
    probe = exp.probe(0)
    return exp.grading(_scan(exp, probe, [exp.boundaries(probe)], lambda b: b > 0))


def _cone_scans(c: IotaComplex, base: Expanded) -> tuple[Grading, Grading]:
    """(d-bar, d-under) from the mapping cone, h-normalized convention.

    ``base`` is the model of C at the truncation wanted; its cycles give
    Q.(cycles of C), which sit in the cone as the same bits shifted by n.
    With B the cone's boundaries at the probe, BQ = B + Q.(cycles) and the
    gains of ``_scan``: d-under is one below the first odd r whose V gains
    over BQ (some U^m z survives outside it), and d-bar the first even r
    whose V gains more over B than over BQ (some U^m z is nonzero in
    homology but in the image of Q).
    """
    g = c.gradings
    exp = Expanded(tuple(t + 1 for t in g) + g, _cone_columns(c, c.diff), base.N, c.tau)

    def spans(parity: int):
        probe = exp.probe(parity)
        B = exp.boundaries(probe)
        return probe, B, B + [z << c.n for z in base.cycles(probe)]

    probe, _, BQ = spans(1)
    d_under = exp.grading(_scan(exp, probe, [BQ], lambda bq: bq > 0)) - 1
    probe, B, BQ = spans(0)
    d_bar = exp.grading(_scan(exp, probe, [B, BQ], lambda b, bq: b > bq))
    return d_bar, d_under


def correction_terms(c: IotaComplex) -> tuple[Grading, Grading, Grading]:
    """(d, d-bar, d-under), exact: those of the untruncated complex.

    One exact pass (``_tower_tops``) over C and one over its mapping cone,
    with no truncation and no expanded model; the cone's levels come from
    C's (``_cone_levels``), not from a second pass over its 2n offsets.
    The cone's columns are ``_cone_columns(c, c.diff)`` except that the
    Q-copy of x_j starts from the vector x_j's column reduced to in the
    first pass, shifted by n, which changes no lead, size or rank
    ("Correction terms without truncation", module docstring).  On the 77
    ``oracle_cross_check`` classes of ``perfbench/reference.json``
    (n = 4,293 generators in all), the nonzero columns the two passes
    reduce fell from 12,033 to 10,264 (2.8n to 2.4n) and the XOR steps from
    28,298 to 18,988, those of the cone from 21,639 to 12,329; the
    benchmark's ``oracle_cross_check`` ops_per_s rose from 2,059 to 2,243
    (20 s runs at seed 29, medians of 10 alternating pairs, CPython 3.11 on
    a shared 2-core x86-64 machine).  The trivial complex returns
    (0, 0, 0).  When C or its cone has no tower, or the triple breaks
    d-under <= d <= d-bar, a complex that fails a ``validate`` check raises
    ValueError naming the first such check (``_refusal``).
    """
    _require_complex(c)
    levels, reduced = _levels(c.offsets), [0] * c.n
    d, _ = _tower_tops(*levels, c.diff, reduced)
    d_bar, odd = _tower_tops(*_cone_levels(*levels, c.n), _cone_columns(c, reduced))
    if None in (d, d_bar, odd):
        raise _refusal(c, "no tower class found; complex violates the tower axiom")
    terms = (c.tau + d, c.tau + d_bar, c.tau + odd - 1)
    if not (terms[2] <= terms[0] <= terms[1]):
        raise _refusal(c, f"correction-term sanity violated: {terms}")
    return terms


# ---------------------------------------------------------------------------
# homotopy / local-map linear systems
#
# An affine GF(2) system in the entries of unknown maps X: a -> b, in
# Kronecker layout: entry (i, j) of a product block is bit j.n + i of the
# block, n the number of generators of b.  That is vec(L.X + X.R) =
# (I (x) L + R^T (x) I) vec X, so the column of the unknown X[i, j] is
# (L[i] << j.n) ^ (S[j] << i), where S[j] marks the columns c of R that
# contain x_j (``_spread``).  Two products whose entries never share a bit
# are one such column: ``find_local_map``'s F column joins d_b and iota_b in
# L and d_a and iota_a in S, since an entry (i, j) of a degree -1 map has
# x_i and x_j of opposite parities and one of a degree 0 map of equal
# parities.  A block that starts at bit s, like the local map's pin, is
# L[i] or S[j] shifted by s.  The unknowns are numbered map by map and,
# within a map, by row i, then column j; the solution sets free unknowns to
# 0, so this order fixes which solution is returned.  The row numbering
# does not change the solution: for a fixed column order the pivot columns,
# and so the solution with free unknowns zero, depend only on the linear
# dependences among the columns.


def _spread(R: Map, width: int, n: int) -> list[int]:
    """S[j], j < width: bit c.n for each column c of R that contains x_j."""
    S = [0] * width
    for c, col in enumerate(R):
        bit = 1 << c * n
        while col:
            low = col & -col
            S[low.bit_length() - 1] |= bit
            col ^= low
    return S


def _kron_columns(rows: list[int], L, S, n: int) -> list[int]:
    """The column (L[i] << j.n) ^ (S[j] << i) of each unknown X[i, j], where
    the unknowns are the bits j of ``rows[i]``, row by row."""
    out = []
    for i, (row, Li) in enumerate(zip(rows, L)):
        while row:
            low = row & -row
            j = low.bit_length() - 1
            out.append((Li << j * n) ^ (S[j] << i))
            row ^= low
    return out


def _rows(a: IotaComplex, b: IotaComplex, shift: int, k: int) -> list[int]:
    """Per generator x_i of b, the mask of the x_j of a that a degree-k map
    a -> b may send to x_i: those at offsets off_b(i) + shift - k, - 2, ...
    from a.tau, where shift = b.tau - a.tau, by one bisect per distinct
    offset of b."""
    masks = {t: a._at_or_below(t + shift - k) for grades in b._index[0] for t in grades}
    return [masks[t] for t in b.offsets]


def _gauge_entries(rows: list[int], diff: Map) -> list[int]:
    """P[k]: the entries (k, j) of the gauge vectors d X + X d of the
    unknowns X[i, j] in ``rows`` that are their lowest entries, row-major.

    Row i of X counts only when the lowest bit k of ``diff[i]`` is below i:
    d X[i, j] has its entries in column j at the rows of ``diff[i]``, and
    X[i, j] d all in row i, so (k, j) comes first.  No two selected unknowns
    share a lowest entry (one is taken for each entry of P), so on the
    entries of P the selected gauge vectors are unit-triangular.
    """
    P = [0] * len(rows)
    for i, (row, col) in enumerate(zip(rows, diff)):
        low = col & -col
        if low and not low >> i:
            P[low.bit_length() - 1] |= row
    return P


def _local_map_columns(a: IotaComplex, b: IotaComplex, za: int,
                       F: list[int], H: list[int], W: list[int]):
    """The columns of the F, H and slack unknowns that the rows F, H and W
    mask, as three lists, in the one-block layout of ``find_local_map``:
    the d- and iota-equations share bits 0..n_a.n_b - 1, and the pin is
    row n_a.n_b + i."""
    n, nn = b.n, a.n * b.n
    Sd = _spread(a.diff, a.n, n)
    Sf = [sd | si | (za >> j & 1) << nn
          for j, (sd, si) in enumerate(zip(Sd, _spread(a.iota, a.n, n)))]
    return (_kron_columns(F, [d | i for d, i in zip(b.diff, b.iota)], Sf, n),
            _kron_columns(H, b.diff, Sd, n),
            _kron_columns(W, [d << nn for d in b.diff], (0,), n))


def _solve(cols: list[int], rhs: int,
           unknowns: list[tuple[list[int], int]]) -> list[Map] | None:
    """The unknown maps of one solution of cols.x = rhs, free unknowns 0,
    or None if there is none.

    One tagged ``gf2.Echelon`` pass: column j joins with the tag 1 << j,
    and rhs, reduced to 0, leaves x in its tag.  ``unknowns`` lists, map by
    map, the rows of its unknowns (as given to ``_kron_columns``) and its
    number of columns; x holds them in that order.
    """
    e = gf2.Echelon()
    for j, col in enumerate(cols):
        e.add(col, 1 << j)
    rest, x = e.reduce(rhs)
    if rest:
        return None
    maps = []
    for rows, width in unknowns:
        X = [0] * width
        for i, row in enumerate(rows):
            # the unknowns of row i are the next row.bit_count() bits of x
            k = row.bit_count()
            part, x = x & ((1 << k) - 1), x >> k
            for j in _bits(row):
                if not part:
                    break
                X[j] |= (part & 1) << i
                part >>= 1
        maps.append(tuple(X))
    return maps


def _vec(m: Map, n: int) -> int:
    """vec m of a map into n generators: column j of m at bit j.n."""
    return sum(col << j * n for j, col in enumerate(m))


def solve_homotopy(a: IotaComplex, b: IotaComplex, rhs: Map) -> Map | None:
    """Solve d_b H + H d_a = rhs for a degree +1 map H: a -> b, exactly.

    ``rhs`` is a degree-0 map a -> b: an rhs without one column per
    generator of a, a column with a bit at a row >= b.n, or a grading of b
    outside a.tau + Z raises ValueError.  The unknowns are the H block of
    ``find_local_map`` (x_i of b at an offset >= off_a(j) + 1 of the same
    parity) and every entry of the product is an equation.  It builds no
    truncated model; the module docstring's "Truncation" bullet says why it
    solves the truncated system.  A system of more than
    MAX_LOCAL_MAP_UNKNOWNS H unknowns raises SearchSizeError, counted from
    the row masks before any column is built; ``validate`` and ``_refusal``
    let it through.  A non-complex raises TypeError.
    """
    _require_complex(a, b)
    if len(rhs) != a.n or any(col >> b.n for col in rhs):
        raise ValueError(f"rhs is not a map from the {a.n} generators of a "
                         f"to the {b.n} of b")
    # b's offsets from a.tau are its own plus shift; a first grading of b
    # outside a.tau + Z is refused by name
    shift = _offsets(b.gradings[:1], a.tau)[0] - b.offsets[0]
    rows = _rows(a, b, shift, 1)
    nh = sum(row.bit_count() for row in rows)
    if nh > MAX_LOCAL_MAP_UNKNOWNS:
        raise SearchSizeError(f"homotopy system too large: {nh} H-vars "
                              f"(limit {MAX_LOCAL_MAP_UNKNOWNS})")
    cols = _kron_columns(rows, b.diff, _spread(a.diff, a.n, b.n), b.n)
    sol = _solve(cols, _vec(rhs, b.n), [(rows, a.n)])
    return None if sol is None else sol[0]


class LocalMapWitness:
    """A local map source -> target: a grading-preserving chain map F with
    F iota + iota F = dH + Hd, F pinned on the deep tower generators.

    ``find_local_map`` returns one once its system is known to be feasible,
    without solving it.  F and H are solved (free unknowns 0, by
    ``_solve``) the first time either is read, from the full
    system: every F, H and slack unknown, with no gauge fixing, in the order
    F, H, slack.  So the witness is the one the system without gauge fixing
    gives.  Until then it holds only the two complexes.  When it solves, it
    builds the unknowns' rows, the slack and the columns from them and
    reads their kept tower representatives; then it keeps the two maps.
    On the largest feasible system of the benchmark's pairs (35 -> 165
    generators, 4,705 unknowns) an unread witness holds 88 bytes under
    ``tracemalloc`` (4.7 KB when it held the row masks and the tower
    representatives, 6.5 MB when it held the columns) and a read one
    2.3 KB; the 165-generator complex keeps its index and tower
    representative in 2.6 KB.
    """

    def __init__(self, source: IotaComplex, target: IotaComplex):
        self.source, self.target = source, target

    def __repr__(self) -> str:
        return (f"LocalMapWitness({self.source.n} -> {self.target.n} generators, "
                f"{'solved' if '_maps' in self.__dict__ else 'unsolved'})")

    @cached_property
    def _maps(self) -> tuple[Map, Map]:
        a, b = self.source, self.target
        F, H = (_rows(a, b, int(b.tau - a.tau), k) for k in (0, 1))
        W = [b._classes[1] >> i & 1 for i in range(b.n)]
        cf, ch, cw = _local_map_columns(a, b, a._tower, F, H, W)
        F, H, _ = _solve(cf + ch + cw, b._tower << a.n * b.n,
                         [(F, a.n), (H, a.n), (W, 1)])
        return F, H

    @property
    def F(self) -> Map:
        return self._maps[0]

    @property
    def H(self) -> Map:
        return self._maps[1]


def find_local_map(a: IotaComplex, b: IotaComplex) -> LocalMapWitness | None:
    """Search for a local map a -> b as an affine GF(2) feasibility problem.

    The witness is a grading-preserving chain map F with
    F iota_a + iota_b F = dH + Hd and F carrying the deep tower generator of
    ``a`` to the deep tower generator of ``b`` (pinned as an affine
    constraint, which makes U-nondegeneracy linear).  Returns None when the
    system is infeasible.  Feasibility is decided by one tag-free
    elimination (``gf2.solvable``: is the pin vector in the span of the
    columns?) of the gauge-fixed system below; a feasible system comes back
    inside a ``LocalMapWitness``, which solves F and H from the full system
    only when one of them is read.

    The search is exact: it builds no truncated model and reads no N.  With
    offsets from a.tau, the unknown F[i, j] (H[i, j]) is there when x_i of b
    is at an offset >= off_a(j) (off_a(j) + 1) of the same parity.  The
    equations are d_b F + F d_a = 0, iota_b F + F iota_a + d_b H + H d_a = 0
    and F(z_a) + d_b(w) = z_b, where the slack w is any chain of b's odd
    class and z_a, z_b are the tower representatives, which each complex
    computes once and keeps (``IotaComplex._tower``).  The system and so
    the witness are those of the search that builds both truncated models
    and masks every product by U^N (the module docstring's "Truncation"
    bullet).

    One block.  Entry (i, j) of the d-equations and of the iota-equations
    is the same bit j.n_b + i.  A d-equation entry is one of a degree -1
    map, so x_i and x_j have opposite parities; an iota-equation entry is
    one of a degree 0 map, with equal parities.  So no bit is used twice,
    and the pin's rows start at n_a.n_b: every column is n_a.n_b + n_b bits
    wide, half the width of one block per equation.  This renumbers the
    equations one to one, so the dependences among the columns, and with
    them feasibility and the solution, do not change.  Each unknown's
    column is one ``_kron_columns`` entry, with no mask.

    Gauge fixing.  Precondition: d^2 = 0 and d iota = iota d on a and on b,
    the first two checks of ``validate`` (the search does not repeat them).
    Then a solution (F, H, w) stays one under two moves:

    - F -> F + dH' + H'd, H -> H + iota H' + H' iota, w -> w + H' z_a, for
      any degree +1 map H'.  d^2 = 0 keeps dF + Fd = 0.  d iota = iota d
      turns (dH' + H'd) iota + iota (dH' + H'd) into d(iota H' + H' iota)
      + (iota H' + H' iota) d.  And d z_a = 0 in L = C/(U - 1), so
      (dH' + H'd) z_a = d(H' z_a), and H' z_a lies in b's odd class.
    - H -> H + dK + Kd, for any degree +2 map K; d^2 = 0 gives
      d(dK + Kd) + (dK + Kd)d = 0, and F and w stay.

    Let X be the unit map at (i, j) and k the lowest bit of d_b[i].  When
    k < i, the lowest entry of dX + Xd in row-major order is (k, j), since
    the entries of Xd all lie in row i.  ``_gauge_entries`` collects these
    lowest entries: P_F over the rows of H' (the H unknowns), P_H over the
    rows of K (x_i at an offset >= off_a(j) + 2).  Taking one unknown per
    entry of P, the selected gauge vectors are unit-triangular on P, so the
    first move can make F zero on P_F, and then the second, which leaves F
    alone, can make H zero on P_H.  Each entry of P_F is an F unknown, since
    x_k is at an offset >= off_b(i) - 1, and likewise each entry of P_H is
    an H unknown.  So the system without the unknowns of P_F and P_H is
    feasible iff the full one is.  The feasibility pass builds it, in the
    column order F, slack, H, for O(n_b) mask operations and no
    elimination.  On the benchmark's pairs it drops 30% of the F and 34% of
    the H unknowns: 1,211 -> 848 F and 1,110 -> 744 H on the 165 -> 21
    system.

    ``tests/test_golden.py`` pins the witnesses, and the differential tests
    compare them with ``dense_reference.dict_find_local_map``, which still
    builds the truncated models, and the gauge-fixed verdicts with those of
    the full system.  A system with more than MAX_LOCAL_MAP_UNKNOWNS
    unknowns, counting every F, H and slack unknown, raises
    SearchSizeError, a ValueError, from the mask counts, before any
    elimination.  Every unknown's column is an int of up to n_a.n_b + n_b
    bits, however few terms it has, so the columns and their echelon basis
    dominate the memory.  At the budget (CPython 3.11, shared 2-core x86-64
    machine, min CPU time of 9 calls in each of three processes): the
    largest system the budget admits among the benchmark's pair complexes,
    165 -> 63 generators with 5,724 unknowns (infeasible, so existence
    alone), takes 6.0-6.4 ms and peaks at 5.5 MB under ``tracemalloc``
    (before gauge fixing and the one block: 23-25 ms and 17.2 MB; the
    truncated search: 28-35 ms, 7.4 MB); the largest feasible one, 35 -> 165
    with 4,705 unknowns, takes 3.6-3.9 ms and 2.7 MB for existence alone
    (before: 9.0-9.3 ms, 7.8 MB), and 12-15 ms and 4.5 MB with the witness
    read (before: 17-28 ms, 8.2 MB; the truncated search: 25-27 ms,
    5.1 MB).
    """
    _require_complex(a, b)
    if ((a.tau - b.tau).denominator != 1) or int(a.tau - b.tau) % 2 != 0:
        raise ValueError(f"tower cosets differ: tau={a.tau} vs {b.tau}")
    shift = int(b.tau - a.tau)  # b's offsets from a.tau are its own plus shift
    # the unknowns, by rows: F[i], H[i] and K[i] mask the x_j of a that F,
    # H and the degree +2 K may send to x_i of b
    F, H, K = (_rows(a, b, shift, k) for k in (0, 1, 2))
    W = [b._classes[1] >> i & 1 for i in range(b.n)]  # the slack w, one column
    nf, nh = (sum(row.bit_count() for row in X) for X in (F, H))
    w_dim = b._classes[1].bit_count()
    if (nf + nh + w_dim) > MAX_LOCAL_MAP_UNKNOWNS:
        raise SearchSizeError(
            f"local-map system too large: {nf} F-vars, "
            f"{nh} H-vars, {w_dim} slack vars (limit {MAX_LOCAL_MAP_UNKNOWNS})")
    za, zb = a._tower, b._tower

    # gauge fixing: the F entries that a change of H' reaches first, and
    # the H entries that a change of K (degree +2) reaches first
    pf = _gauge_entries(H, b.diff)
    ph = _gauge_entries(K, b.diff)
    cf, ch, cw = _local_map_columns(a, b, za, [r & ~p for r, p in zip(F, pf)],
                                    [r & ~p for r, p in zip(H, ph)], W)
    if not gf2.solvable(cf + cw + ch, zb << a.n * b.n):
        return None
    return LocalMapWitness(a, b)


def locally_equivalent(a: IotaComplex, b: IotaComplex) -> bool:
    """True iff local maps exist in both directions.

    It asks ``find_local_map`` only whether each system is feasible and
    reads no witness, so it solves none: each direction is one tag-free
    elimination (``gf2.solvable``) and no ``_solve`` runs.

    Precondition, that of ``find_local_map``'s gauge fixing: d^2 = 0 and
    d iota = iota d on a and on b, the first two checks of ``validate``,
    which neither function repeats.  On a complex that breaks them the
    answer can be False where local maps exist.
    """
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
        "differential": mat(c.diff, -1),
        "iota": mat(c.iota, 0),
    }
