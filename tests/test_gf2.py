"""GF(2) linear algebra kernel on int bitsets."""

from hypothesis import given, strategies as st

from hfi import complexes, gf2

matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def from_rows(rows) -> list[int]:
    """The bit columns of the matrix with the given 0/1 rows."""
    return [sum(row[j] << i for i, row in enumerate(rows)) for j in range(len(rows[0]))]


def units(ncols: int) -> list[int]:
    """Column j stands for the unknown x_j, the unit vector 1 << j."""
    return [1 << j for j in range(ncols)]


def apply(a: list[int], x: int) -> int:
    """a x: the XOR of the columns that x selects."""
    out = 0
    for j, col in enumerate(a):
        if x >> j & 1:
            out ^= col
    return out


def solve(a: list[int], b: int) -> int | None:
    """``complexes._solve`` for one unknown vector x (one row of unknowns
    x_0 .. x_{ncols-1}), read back as an int, or None."""
    sol = complexes._solve(a, b, [([(1 << len(a)) - 1], len(a))])
    return None if sol is None else sum(x << j for j, x in enumerate(sol[0]))


def test_rank_identity():
    assert gf2.rank([1, 2, 4, 8]) == 4


def test_rank_singular():
    a = from_rows([[1, 1], [1, 1]])
    assert gf2.rank(a) == 1


def test_kernel_of_singular_matrix():
    a = from_rows([[1, 1], [1, 1]])
    k = gf2.kernel(a, units(2))
    assert len(k) == 1
    assert not any(apply(a, x) for x in k)


@given(matrices)
def test_kernel_vectors_are_in_kernel(rows):
    a = from_rows(rows)
    k = gf2.kernel(a, units(len(a)))
    assert gf2.rank(a) + len(k) == len(a)
    assert all(x >> len(a) == 0 for x in k)
    assert not any(apply(a, x) for x in k)


@given(matrices, st.data())
def test_solve_affine_solves(rows, data):
    a = from_rows(rows)
    x = data.draw(st.integers(0, 2 ** len(a) - 1))
    b = apply(a, x)
    sol = solve(a, b)
    assert sol is not None
    assert apply(a, sol) == b


def test_solve_affine_infeasible():
    a = from_rows([[1, 1], [1, 1]])
    b = 0b01
    assert solve(a, b) is None


def test_in_span():
    assert 0b11 in gf2.Echelon([0b01, 0b10, 0b11])
    assert 0b10 not in gf2.Echelon([0b01])


def test_intersection_dim():
    # span{e1, e2} and span{e2, e3} intersect in span{e2}:
    # dim(V ∩ W) = dim W - (dim(V + W) - dim V)
    v = [0b001, 0b010]
    w = [0b010, 0b100]
    assert gf2.rank(w) - (gf2.rank(v + w) - gf2.rank(v)) == 1


@given(matrices)
def test_echelon_reproduces_column_span(rows):
    a = from_rows(rows)
    e = gf2.Echelon(a)
    assert len(e) == gf2.rank(a)
    basis = [v for v, _ in e.pivots.values()]
    assert gf2.rank(a + basis) == gf2.rank(a)


def test_a_map_with_no_columns():
    # rank 0, an empty kernel, and only b = 0 in the span
    assert gf2.rank([]) == 0
    assert gf2.kernel([], []) == []
    assert solve([], 0) == 0
    assert solve([], 0b100) is None
    assert gf2.solvable([], 0) and not gf2.solvable([], 0b100)


def test_kernel_in_given_coordinates():
    # columns stand for x_3 and x_5: their sum is the kernel
    assert gf2.kernel([0b11, 0b11], [1 << 3, 1 << 5]) == [(1 << 3) | (1 << 5)]


def test_solvable_stops_at_the_first_column_that_reduces_b_to_0():
    # b = 0b110 has lead 3: the first column does not touch it, the second
    # takes its lead and the reduction ends on the first, so the third
    # column must not be read
    def columns(*cols):
        yield from cols
        raise AssertionError("a column after the one that reduced b to 0 was read")

    assert gf2.solvable(columns(0b010, 0b100), 0b110)
    assert gf2.solvable(columns(0b110), 0b110)
    # while b is not yet 0 every column is read, and the answer is kept
    assert not gf2.solvable(iter([0b010, 0b100, 0b110]), 0b001)
    assert gf2.rank(iter([0b010, 0b100, 0b110])) == 2
