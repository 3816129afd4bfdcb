"""Linear algebra over GF(2) on Python-int bitsets.

A vector is an int: bit i is coordinate i.  A matrix is the sequence of its
columns as such ints, bit i of column j being entry (i, j), the bit-column
``Map`` of ``hfi.complexes``, so its column span is the subspace it
represents.  Packing a vector into machine words is the idea of M4RI
(Albrecht, Bard and Hart, ACM TOMS 2010); here Python's ints do the packing
and one XOR adds two vectors.

Every routine runs one elimination: a basis with one vector per leading
(highest) bit, in one dict keyed by the lead, so each reduction step is one
lookup and one XOR.  It comes in two passes, each written once:

- The tagged pass, ``Echelon``, for the routines that need to know how a
  vector is made: each lead maps to the pair (vector, tag), ``reduce`` XORs
  the tags alongside the vectors, ``add`` is ``reduce`` followed by
  inserting a nonzero remainder, ``in`` asks whether ``reduce`` leaves 0
  and ``len`` counts the leads.  ``kernel`` feeds it the columns in order,
  and so does ``hfi.complexes._solve``, with the unit vector 1 << j as the
  tag of column j.  For a fixed column order the pivot columns, and the
  expression of each column through the pivot columns before it, do not
  depend on how the elimination runs, so the kernel basis and the solution
  with free variables zero are the ones the reduced row-echelon form gives,
  vector for vector.
- The tag-free pass, ``_span``, which ``rank`` and ``solvable`` read: each
  lead maps to its vector alone, with no tag as wide as the unknown count
  riding along.  That makes ``solvable`` 1.5x to 1.9x faster than
  ``b in Echelon(cols)`` on the local-map systems of ``hfi.complexes``.
"""

from collections.abc import Iterable, Sequence


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
        """Reduce v; a nonzero remainder joins the basis.  Returns (remainder, tag)."""
        v, tag = self.reduce(v, tag)
        if v:
            self.pivots[v.bit_length()] = (v, tag)
        return v, tag


def _span(cols: Iterable[int], b: int) -> tuple[int, int]:
    """The tag-free pass: (the number of basis vectors, b reduced).

    Each column is reduced, and joins the basis if it is not 0.  b is kept
    reduced: 0, or with a leading bit that has no basis vector, so it is
    reduced again only when a new basis vector takes its leading bit.  A
    nonzero b that reaches 0 stops the pass, leaving the rest of the
    columns unread.
    """
    pivots: dict[int, int] = {}
    lead = b.bit_length()
    for v in cols:
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                if h == lead:
                    while b:
                        p = pivots.get(b.bit_length())
                        if p is None:
                            break
                        b ^= p
                    if not b:
                        return len(pivots), 0
                    lead = b.bit_length()
                break
            v ^= p
    return len(pivots), b


def rank(cols: Sequence[int]) -> int:
    """The rank of the map: the number of leads of the tag-free basis of
    its columns, ``len(Echelon(cols))``."""
    return _span(cols, 0)[0]


def kernel(cols: Sequence[int], units: Sequence[int]) -> list[int]:
    """Basis of the kernel of the map, one vector per free column.

    Column j stands for the vector ``units[j]``, so the kernel comes back
    in the coordinates of ``units``: with ``units[j] = 1 << j`` it is a
    set of columns whose sum is 0.
    """
    e = Echelon()
    out = []
    for col, unit in zip(cols, units):
        v, tag = e.add(col, unit)
        if not v:
            out.append(tag)
    return out


def solvable(cols: Sequence[int], b: int) -> bool:
    """True iff b is in the column span of the map, that is, iff A x = b
    has a solution.

    The tag-free pass keeps b reduced by the basis built so far, so the
    search stops at the first column that makes it 0.  ``b in
    Echelon(cols)`` decides the same, but stores a (vector, tag) pair per
    lead and XORs a 0 tag at every step: on the local-map systems of
    ``hfi.complexes`` that costs about 1.5x (infeasible) to 1.9x (feasible)
    the time of this pass, and adding the early stop to it does not close
    the gap.
    """
    return not _span(cols, b)[1]
