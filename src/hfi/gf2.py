"""Linear algebra over GF(2) on Python-int bitsets.

A vector is an int: bit i is coordinate i.  A ``Matrix`` holds its row count
and its columns as such ints, so its column span is the subspace it
represents, and a matrix with no columns still knows how many rows it has.
Packing a vector into machine words is the idea of M4RI (Albrecht, Bard and
Hart, ACM TOMS 2010); here Python's ints do the packing and one XOR adds two
vectors.

One elimination serves every routine that needs to know how a vector is
made: ``Echelon`` keeps a basis with one vector per leading (highest) bit,
in one dict from the lead to the pair (vector, tag), so each reduction step
is one lookup and one XOR per part.  ``kernel`` and ``solve_affine`` feed
it the columns in order.  For a fixed column order the
pivot columns, and the expression of each column through the pivot columns
before it, do not depend on how the elimination runs, so the kernel basis
and the solution with free variables zero are the ones the reduced
row-echelon form gives, vector for vector.

``rank`` and ``solvable`` need no tags: ``rank`` counts the basis vectors
and ``solvable`` asks only whether a system has a solution.  They run the
one elimination without tags, the same basis of one vector per leading bit
with no tag as wide as the unknown count riding along, so each step is one
lookup and one XOR.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class Matrix:
    """An nrows x len(cols) matrix over GF(2); bit i of ``cols[j]`` is entry (i, j)."""

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols: Sequence[int]):
        self.nrows = nrows
        self.cols = tuple(cols)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @property
    def size(self) -> int:
        return self.nrows * len(self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.cols == other.cols)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}, {list(self.cols)!r})"


class Echelon:
    """A subspace held as an echelon basis: at most one vector per leading bit.

    Each basis vector carries a tag.  ``add(v, tag)`` XORs basis vectors
    into v and their tags into tag, so a tag records which combination of
    the added vectors a basis vector (or a reduced vector) is.  ``pivots``
    maps the bit_length of each leading bit to its (vector, tag).
    """

    __slots__ = ("pivots",)

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict[int, tuple[int, int]] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.pivots)

    def __contains__(self, v: int) -> bool:
        return not self.reduce(v)[0]

    def copy(self) -> Echelon:
        e = Echelon()
        e.pivots = dict(self.pivots)
        return e

    def reduce(self, v: int, tag: int = 0) -> tuple[int, int]:
        """Reduce v until it is 0 or its leading bit has no basis vector."""
        pivots = self.pivots
        while v:
            p = pivots.get(v.bit_length())
            if p is None:
                break
            pv, pt = p
            v ^= pv
            tag ^= pt
        return v, tag

    def add(self, v: int, tag: int = 0) -> tuple[int, int]:
        """Reduce v; a nonzero remainder joins the basis.  Returns (remainder, tag).

        The loop is ``reduce``'s, inline: one method call per column.
        """
        pivots = self.pivots
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = (v, tag)
                break
            pv, pt = p
            v ^= pv
            tag ^= pt
        return v, tag

    def rank_mod(self, vectors: Iterable[int]) -> int:
        """dim(span(self, vectors)) - dim(self); self is left unchanged."""
        e = self.copy()
        for v in vectors:
            e.add(v)
        return len(e) - len(self)


def rank(A: Matrix) -> int:
    """The rank of A: the number of leads of the tag-free basis of its
    columns, ``len(Echelon(A.cols))``."""
    pivots: dict[int, int] = {}
    for v in A.cols:
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                break
            v ^= p
    return len(pivots)


def kernel(A: Matrix, units: Matrix | None = None) -> Matrix:
    """Basis of ker(A), one vector per free column, as the columns of a matrix.

    Column j of A stands for the unit vector ``units.cols[j]`` (by default
    1 << j), so the kernel comes back in the coordinates of ``units``.
    """
    if units is None:
        units = Matrix(A.ncols, [1 << j for j in range(A.ncols)])
    e = Echelon()
    out = []
    for col, unit in zip(A.cols, units.cols):
        v, tag = e.add(col, unit)
        if not v:
            out.append(tag)
    return Matrix(units.nrows, out)


def solve_affine(A: Matrix, b: int) -> int | None:
    """One solution x of A x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    e = Echelon()
    for j, col in enumerate(A.cols):
        e.add(col, 1 << j)
    rest, x = e.reduce(b)
    return None if rest else x


def solvable(A: Matrix, b: int) -> bool:
    """True iff A x = b has a solution, that is, iff b is in the column span
    of A.  ``solve_affine(A, b) is not None`` gives the same answer.

    b is kept reduced by the basis built so far, so the search stops at the
    first column that makes it 0.  ``b in Echelon(A.cols)`` decides the
    same, but stores a (vector, tag) pair per lead and XORs a 0 tag at every
    step: on the local-map systems of ``hfi.complexes`` that costs about
    1.5x (infeasible) to 1.9x (feasible) the time of this loop, and adding
    the early stop to it does not close the gap.
    """
    pivots: dict[int, int] = {}
    rest = b  # 0, or its leading bit has no basis vector
    for v in A.cols:
        while v:
            p = pivots.get(v.bit_length())
            if p is None:
                break
            v ^= p
        if v:
            pivots[v.bit_length()] = v
            while rest:
                p = pivots.get(rest.bit_length())
                if p is None:
                    break
                rest ^= p
            if not rest:
                return True
    return not rest
