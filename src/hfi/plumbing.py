"""Plumbing trees: definiteness, K^2, rationality and almost-rationality.

A plumbing graph is a finite weighted tree; its intersection form has the
vertex weights on the diagonal and 1 for each edge.  Definiteness and K^2
come from one integer elimination along the tree, with no fill-in and no
gcd.  Rationality is Laufer's criterion, read from one Laufer closure
started at the sum of all basis vectors; almost-rationality is decided
exactly by one such closure per vertex that never adds that vertex.

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
    These fields take no part in ==, hash or repr.  A weight that is not an
    int (a bool is not) raises ValueError, which names the vertex.
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
        for v, w in self.vertices:
            if type(w) is not int:
                raise ValueError(f"vertex {v!r} has weight {w!r}, which is not "
                                 "an int: weights are exact integers")
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


def canonical_K(g: PlumbingGraph) -> list[int]:
    """Values K(v) = -m(v) - 2 of the canonical characteristic element."""
    return [-w - 2 for w in g.weights()]


def _tree_pass(g: PlumbingGraph, rhs: list[int]):
    """Integer elimination of the intersection form, leaves first.

    On a tree, eliminating v changes only its parent's row: no fill-in.
    Vertex v carries pivot d_v = D[v]/P[v] and right-hand side b_v = B[v]/P[v],
    with P[v] the product of D over v's children.  Eliminating v subtracts
    P[v]/D[v] and B[v]/D[v] from its parent p's; over P[p] D[v] that is the
    three updates below, and D[v] is the determinant of v's subtree (expand
    along v).  Yields (D, P, B) per vertex in elimination order, so that
    M = L diag(d) L^T and b = L^{-1} rhs, and stops after the first zero D.
    """
    D = g.weights()
    P = [1] * g.n
    B = list(rhs)
    for v in reversed(g.order):
        d, pv, b = D[v], P[v], B[v]
        yield d, pv, b
        if d == 0:
            return
        p = g.parent[v]
        if p >= 0:
            pp = P[p]
            D[p] = D[p] * d - pv * pp
            B[p] = B[p] * d - b * pp
            P[p] = pp * d


def is_negative_definite(g: PlumbingGraph) -> bool:
    """Exact test: M = L diag(d) L^T is negative definite iff every pivot
    D[v]/P[v] is negative; a zero D ends the tree pass and fails the test."""
    return all(d * p < 0 for d, p, _ in _tree_pass(g, [0] * g.n))


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


def _laufer_start(weights: list[int], adj: list[list[int]],
                  counts: list[int] | None = None, fixed: int = -1) -> int:
    """Laufer's closure from x = sum of all E_v; returns chi(Z_min) - 1.

    On a negative-definite form the closure ends at the minimal cycle Z_min
    (``counts``, all ones, becomes Z_min).  chi(x) = 1 on every tree, as
    <x, x> = sum w + 2(n - 1) from the diagonal and the n - 1 edges and
    <K, x> = sum(-w - 2) = -sum w - 2n give chi(x) = -(-2)/2.  So
    chi(Z_min) = 1 + the closure's chi change: rational iff it is 0.
    With ``fixed``, the closure never adds that vertex (is_almost_rational).
    """
    pairing = [w + len(nbrs) for w, nbrs in zip(weights, adj)]  # <x, E_v>
    return laufer_closure(weights, adj, pairing, list(range(len(weights))),
                          counts, fixed)


def minimal_cycle(g: PlumbingGraph) -> list[int]:
    """Laufer's computation sequence for the fundamental (minimal) cycle;
    requires negative definiteness (guaranteed termination)."""
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    x = [1] * g.n
    _laufer_start(g.weights(), g.adj, x)
    return x


def is_rational(g: PlumbingGraph) -> bool:
    """Artin's criterion via Laufer: rational iff chi(Z_min) = 1, i.e. iff
    the closure from the sum of all basis vectors leaves chi unchanged."""
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    return _laufer_start(g.weights(), g.adj) == 0


@dataclass(frozen=True)
class ARVerdict:
    verdict: str  # "yes" or "no"
    witness: tuple[str, int] | None  # (vertex id, lowered weight) when "yes"

    def __str__(self) -> str:
        if self.witness is None:
            return "no"
        return "yes (vertex {} at weight {} is rational)".format(*self.witness)


def is_almost_rational(g: PlumbingGraph) -> ARVerdict:
    """Exact almost-rationality (Nemethi, G&T 9, 2005): is one vertex
    rational at a lowered weight?  A rational graph is its own witness,
    ``g.vertices[0]``; otherwise the witness is the first vertex v with a
    rational lowered weight, at the largest one.  Lowering keeps the form
    definite, and rational graphs rational (Laufer, 1972): the rational
    weights at v form a down-set.

    Let z end the closure from the sum of all E_u that never adds E_v; its
    steps never read w_v.  A run x <= z', where z' >= x pairs <= 0 with every
    E_u off v, stays so: <z' - x, E_u> < 0 and z' - x >= 0 force
    (z' - x)_u > 0 (Laufer).  So z <= Z_min at every weight at v.  Put
    T = -sum z_u over the neighbours u of v.  At any w' <= T,
    <z, E_v> = w' + sum z_u <= 0, so z = Z_min there and chi(Z_min) - 1 is
    the closure's chi change c_v.  So v has a rational weight iff c_v = 0;
    then T < w_v (the graph is not rational) and the largest one is in
    T..w_v - 1: n closures, plus at most w_v - T - 1 on the witness vertex.
    """
    if not is_negative_definite(g):
        raise ValueError("plumbing graph is not negative definite")
    weights = g.weights()
    if _laufer_start(weights, g.adj) == 0:
        return ARVerdict("yes", g.vertices[0])
    for v, (vid, w) in enumerate(g.vertices):
        z = [1] * g.n
        if _laufer_start(weights, g.adj, z, fixed=v) != 0:
            continue
        threshold = -sum(z[u] for u in g.adj[v])
        for lowered in range(w - 1, threshold, -1):
            weights[v] = lowered
            if _laufer_start(weights, g.adj) == 0:
                return ARVerdict("yes", (vid, lowered))
        return ARVerdict("yes", (vid, threshold))
    return ARVerdict("no", None)


def k_squared(g: PlumbingGraph) -> Fraction:
    """<K, K> = K^T M^{-1} K, the sum of b_v^2/d_v = B[v]^2/(P[v] D[v]) over the
    tree pass.  Raises ValueError on a zero pivot (M singular, or a form that
    needs pivoting in leaf order; definite forms never do)."""
    steps = list(_tree_pass(g, canonical_K(g)))
    if steps[-1][0] == 0:
        raise ValueError("zero pivot in the tree elimination of the intersection form")
    return sum((Fraction(b * b, p * d) for d, p, b in steps), Fraction(0))


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
            try:
                verts.append((parts[1], int(parts[2])))
            except ValueError:
                raise ValueError(f"line {lineno}: weight {parts[2]!r} is not an "
                                 "integer") from None
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
