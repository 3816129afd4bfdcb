"""Plumbing trees: intersection forms, rationality, and almost-rationality.

A plumbing graph is a finite weighted tree; its intersection form has the
vertex weights on the diagonal and 1 for each edge.  Rationality is decided
by Laufer's computation sequence for the minimal cycle (the fundamental
cycle Z_min satisfies chi(Z_min) = 1 exactly for rational graphs), and the
almost-rational check lowers one vertex weight at a time within a bound.
Negative definiteness and K^2 come from one exact elimination along the
tree, which has no fill-in.

A ``PlumbingGraph`` holds its index form, built once when the graph is
checked: the vertex indices, the index adjacency and a BFS order from
vertex 0 with parents.  Every routine here reads it; the elimination
order is the stored BFS order reversed, leaves first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class PlumbingGraph:
    """A weighted tree, checked on construction, and its index form.

    Vertex i is ``vertices[i]``.  ``__post_init__`` builds the index form
    once, and it is read-only afterwards: ``index`` maps a vertex id to its
    index, ``adj[i]`` lists the neighbours of i, ``order`` is the BFS order
    from vertex 0 and ``parent[i]`` the BFS parent of i (-1 at vertex 0).
    These fields take no part in ==, hash or repr.
    """

    vertices: tuple[tuple[str, int], ...]  # (id, weight)
    edges: tuple[tuple[str, str], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    adj: list[list[int]] = field(init=False, repr=False, compare=False)
    order: list[int] = field(init=False, repr=False, compare=False)
    parent: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, (v, _) in enumerate(self.vertices)}
        n = len(index)
        if n != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            if a not in index or b not in index:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")
            if a == b:
                raise ValueError("self-loops are not allowed")
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
        if len(self.edges) != n - 1:
            raise ValueError("a plumbing tree on n vertices needs n-1 edges")
        # with n - 1 edges, the graph is a tree iff the BFS reaches every vertex
        parent = [-1] * n
        order = [0]
        seen = {0}
        for v in order:  # the list grows while it is read
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise ValueError("plumbing graph is not connected")
        for name, value in (("index", index), ("adj", adj), ("order", order),
                            ("parent", parent)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def weights(self) -> list[int]:
        return [w for _, w in self.vertices]

    def reweighted(self, vertex_id: str, new_weight: int) -> "PlumbingGraph":
        verts = tuple((v, new_weight if v == vertex_id else w)
                      for v, w in self.vertices)
        return PlumbingGraph(verts, self.edges)


def intersection_form(g: PlumbingGraph) -> list[list[int]]:
    m = [[0] * g.n for _ in range(g.n)]
    for v, (w, nbrs) in enumerate(zip(g.weights(), g.adj)):
        m[v][v] = w
        for u in nbrs:
            m[v][u] = 1
    return m


def canonical_K(g: PlumbingGraph) -> list[int]:
    """Values K(v) = -m(v) - 2 of the canonical characteristic element."""
    return [-w - 2 for w in g.weights()]


def tree_elimination(g: PlumbingGraph,
                     rhs: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Symmetric Gaussian elimination of the intersection form, leaves first.

    Vertices are eliminated children before parents (reverse BFS order from
    the first vertex).  On a tree, eliminating v only changes its parent's
    diagonal entry and right-hand side, so there is no fill-in and the pass
    takes O(n) exact steps.  Returns the pivots d_v and the eliminated
    right-hand side b_v in elimination order, so that M = L D L^T with
    D = diag(d) and b = L^{-1} rhs.  The pass stops after the first zero
    pivot, since no later vertex can be divided by it.
    """
    diag = [Fraction(w) for w in g.weights()]
    b = [Fraction(r) for r in rhs]
    pivots: list[Fraction] = []
    out: list[Fraction] = []
    for v in reversed(g.order):
        d = diag[v]
        pivots.append(d)
        out.append(b[v])
        if d == 0:
            break
        p = g.parent[v]
        if p >= 0:  # the edge entry is 1: subtract row v / d from row p
            diag[p] -= 1 / d
            b[p] -= b[v] / d
    return pivots, out


def is_negative_definite(g: PlumbingGraph) -> bool:
    """Exact test: every pivot of the tree elimination is negative.

    M = L D L^T is congruent to D, so M is negative definite iff all pivots
    are negative (a zero pivot ends the pass and the test fails).
    """
    pivots, _ = tree_elimination(g, [0] * g.n)
    return all(d < 0 for d in pivots)


def chi(g: PlumbingGraph, x: list[int]) -> int:
    """chi(x) = -( <x, x> + <K, x> ) / 2, an integer since K is characteristic."""
    xx = sum(xv * (w * xv + sum(x[u] for u in nbrs))
             for xv, w, nbrs in zip(x, g.weights(), g.adj))
    kx = sum(k * xi for k, xi in zip(canonical_K(g), x))
    return -(xx + kx) // 2


def laufer_closure(weights: list[int], adj: list[list[int]], pairing: list[int],
                   stack: list[int], counts: list[int] | None = None,
                   fixed: int = -1) -> int:
    """Laufer's closure: add base vertices while one pairs positively.

    ``pairing[v]`` holds <x, E_v> for the current cycle x and is updated in
    place; ``stack`` holds the candidate vertices (it is emptied).  The
    vertex ``fixed`` is never added.  When ``counts`` is given, it is x and
    gets the added multiplicities.  Each addition of E_v changes chi by
    1 - <x, E_v>; the total change is returned, in exact integers.
    """
    dchi = 0
    while stack:
        v = stack.pop()
        if v == fixed or pairing[v] <= 0:
            continue
        dchi += 1 - pairing[v]
        if counts is not None:
            counts[v] += 1
        pairing[v] += weights[v]
        for w in adj[v]:
            pairing[w] += 1
            if pairing[w] > 0:
                stack.append(w)
        if pairing[v] > 0:
            stack.append(v)
    return dchi


def minimal_cycle(g: PlumbingGraph) -> list[int]:
    """Laufer's computation sequence for the fundamental (minimal) cycle.

    Start from the sum of all basis vectors; while some vertex pairs
    positively with the cycle, add that vertex.  Requires negative
    definiteness (guaranteed termination).
    """
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    weights = g.weights()
    x = [1] * g.n
    # pairing[v] = <x, E_v>
    pairing = [weights[v] + len(g.adj[v]) for v in range(g.n)]
    laufer_closure(weights, g.adj, pairing, list(range(g.n)), counts=x)
    return x


def is_rational(g: PlumbingGraph) -> bool:
    """Artin's criterion via Laufer: rational iff chi(minimal cycle) = 1."""
    return chi(g, minimal_cycle(g)) == 1


@dataclass(frozen=True)
class ARVerdict:
    verdict: str  # "yes" or "inconclusive"
    witness: tuple[str, int] | None  # (vertex id, lowered weight) when "yes"
    bound: int

    def __str__(self) -> str:
        if self.verdict == "yes":
            v, w = self.witness
            return f"almost rational (vertex {v} at weight {w} is rational)"
        return f"inconclusive within {self.bound} decrements per vertex"


def is_almost_rational(g: PlumbingGraph, bound: int = 64) -> ARVerdict:
    """Search for a single-vertex weight decrease that makes the graph rational.

    A rational graph is almost rational as-is.  The search is bounded; at the
    bound the result is "inconclusive" rather than a guess.
    """
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    if is_rational(g):
        vid, w = g.vertices[0]
        return ARVerdict("yes", (vid, w), bound)
    for vid, w in g.vertices:
        for dec in range(1, bound + 1):
            if is_rational(g.reweighted(vid, w - dec)):
                return ARVerdict("yes", (vid, w - dec), bound)
    return ARVerdict("inconclusive", None, bound)


def k_squared(g: PlumbingGraph) -> Fraction:
    """<K, K> = K^T M^{-1} K, computed exactly by one tree elimination.

    With M = L D L^T and b = L^{-1} K this is the sum of b_v^2 / d_v.
    Raises ValueError when a pivot is zero (M singular, or a form whose
    elimination in leaf order needs pivoting; definite forms never do).
    """
    pivots, b = tree_elimination(g, canonical_K(g))
    if pivots[-1] == 0:
        raise ValueError("zero pivot in the tree elimination of the intersection form")
    return sum((bv * bv / d for bv, d in zip(b, pivots)), Fraction(0))


# ---------------------------------------------------------------------------
# plumbing graph file format: lines "vertex <id> <weight>" / "edge <id> <id>"


def graph_from_text(text: str) -> PlumbingGraph:
    verts: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 3:
            verts.append((parts[1], int(parts[2])))
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: expected 'vertex <id> <weight>' or "
                             f"'edge <id> <id>', got {raw!r}")
    return PlumbingGraph(tuple(verts), tuple(edges))


def graph_to_text(g: PlumbingGraph) -> str:
    lines = [f"vertex {v} {w}" for v, w in g.vertices]
    lines += [f"edge {a} {b}" for a, b in g.edges]
    return "\n".join(lines) + "\n"
