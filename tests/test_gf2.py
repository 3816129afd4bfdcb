"""GF(2) linear algebra kernel on int bitsets."""

from hypothesis import given, strategies as st

from hfi import gf2

matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def from_rows(rows) -> gf2.Matrix:
    """The matrix with the given 0/1 rows."""
    return gf2.Matrix(len(rows), [sum(row[j] << i for i, row in enumerate(rows))
                                  for j in range(len(rows[0]))])


def apply(a: gf2.Matrix, x: int) -> int:
    """a x: the XOR of the columns that x selects."""
    out = 0
    for j, col in enumerate(a.cols):
        if x >> j & 1:
            out ^= col
    return out


def test_rank_identity():
    assert gf2.rank(gf2.Matrix(4, [1, 2, 4, 8])) == 4


def test_rank_singular():
    a = from_rows([[1, 1], [1, 1]])
    assert gf2.rank(a) == 1


def test_kernel_of_singular_matrix():
    a = from_rows([[1, 1], [1, 1]])
    k = gf2.kernel(a)
    assert k.ncols == 1
    assert not any(apply(a, x) for x in k.cols)


@given(matrices)
def test_kernel_vectors_are_in_kernel(rows):
    a = from_rows(rows)
    k = gf2.kernel(a)
    assert gf2.rank(a) + k.ncols == a.ncols
    assert k.nrows == a.ncols
    assert not any(apply(a, x) for x in k.cols)


@given(matrices, st.data())
def test_solve_affine_solves(rows, data):
    a = from_rows(rows)
    x = data.draw(st.integers(0, 2 ** a.ncols - 1))
    b = apply(a, x)
    sol = gf2.solve_affine(a, b)
    assert sol is not None
    assert apply(a, sol) == b


def test_solve_affine_infeasible():
    a = from_rows([[1, 1], [1, 1]])
    b = 0b01
    assert gf2.solve_affine(a, b) is None


def test_in_span():
    v = gf2.Matrix(2, [0b01, 0b10, 0b11])
    assert 0b11 in gf2.Echelon(v.cols)
    w = gf2.Matrix(2, [0b01])
    assert 0b10 not in gf2.Echelon(w.cols)


def test_intersection_dim():
    # span{e1, e2} and span{e2, e3} intersect in span{e2}:
    # dim(V ∩ W) = dim W - (dim(V + W) - dim V)
    v = gf2.Matrix(3, [0b001, 0b010])
    w = gf2.Matrix(3, [0b010, 0b100])
    assert gf2.rank(w) - gf2.Echelon(v.cols).rank_mod(w.cols) == 1


@given(matrices)
def test_echelon_reproduces_column_span(rows):
    a = from_rows(rows)
    e = gf2.Echelon(a.cols)
    assert len(e) == gf2.rank(a)
    basis = tuple(v for v, _ in e.pivots.values())
    assert gf2.rank(gf2.Matrix(a.nrows, a.cols + basis)) == gf2.rank(a)


def test_zero_width_matrix_keeps_its_rows():
    a = gf2.Matrix(5, [])
    assert (a.nrows, a.ncols, a.size) == (5, 0, 0)
    assert gf2.rank(a) == 0
    assert gf2.kernel(a) == gf2.Matrix(0, [])
    assert gf2.solve_affine(a, 0) == 0
    assert gf2.solve_affine(a, 0b100) is None


def test_kernel_in_given_coordinates():
    # columns stand for x_3 and x_5: their sum is the kernel
    a = gf2.Matrix(2, [0b11, 0b11])
    units = gf2.Matrix(8, [1 << 3, 1 << 5])
    assert gf2.kernel(a, units) == gf2.Matrix(8, [(1 << 3) | (1 << 5)])
