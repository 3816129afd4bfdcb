"""The bit-column kernels of ``hfi.complexes`` against ``_bits``-based references.

``mat_mul``, ``_spread``, ``_kron_columns``, ``tensor`` and
``IotaComplex._tower`` walk the set bits of an int inline;
``dense_reference`` walks them with the generator ``complexes._bits``.  The
maps have zero, single-bit, full and random columns, at widths on both
sides of the 30- and 60-bit digit boundaries of CPython's ints.
"""

from hypothesis import given, seed, settings, strategies as st

from dense_reference import (bits_kron_columns, bits_mat_mul, bits_spread,
                             bits_tensor_maps, bits_tower)
from hfi import complexes
from hfi.complexes import IotaComplex, mat_mul, tensor

WIDTHS = (1, 2, 29, 30, 31, 59, 60, 61, 62, 90)
widths = st.sampled_from(WIDTHS)
spacings = st.sampled_from((1, 2, 3, 30, 31, 61))


def column(width: int):
    """An int of ``width`` bits: zero, one bit, all bits or random."""
    full = (1 << width) - 1
    return st.one_of(st.just(0), st.integers(0, width - 1).map(lambda i: 1 << i),
                     st.just(full), st.integers(0, full))


def columns(count: int, width: int):
    return st.lists(column(width), min_size=count, max_size=count).map(tuple)


@st.composite
def products(draw):
    """(a, b) with a: w_in -> w_out generators and b: cols -> w_in."""
    w_in, w_out, cols = draw(widths), draw(widths), draw(widths)
    return draw(columns(w_in, w_out)), draw(columns(cols, w_in))


@st.composite
def spreads(draw):
    width = draw(widths)
    return draw(columns(draw(widths), width)), width, draw(spacings)


@st.composite
def kron_systems(draw):
    """(rows, L, S, n): rows[i] masks the columns j < len(S) of row i."""
    nrows, width = draw(widths), draw(widths)
    rows = draw(columns(nrows, width))
    L = draw(columns(nrows, draw(widths)))
    S = draw(columns(width, draw(widths)))
    return rows, L, S, draw(spacings)


def complexes_of(n: int, offsets=None):
    """An IotaComplex on n generators with random bit columns (not graded:
    the kernels read only the bits, the offsets and n)."""
    offsets = st.just((0,) * n) if offsets is None else offsets
    return st.builds(lambda off, d, i: IotaComplex(tuple(f"x{k}" for k in range(n)),
                                                   off, d, i, 0),
                     offsets, columns(n, n), columns(n, n))


@seed(20170624)
@settings(max_examples=40, deadline=None)
@given(products())
def test_mat_mul_matches_the_bits_reference(ab):
    a, b = ab
    assert mat_mul(a, b) == bits_mat_mul(a, b)


@seed(20170624)
@settings(max_examples=40, deadline=None)
@given(spreads())
def test_spread_matches_the_bits_reference(args):
    assert complexes._spread(*args) == bits_spread(*args)


@seed(20170624)
@settings(max_examples=40, deadline=None)
@given(kron_systems())
def test_kron_columns_match_the_bits_reference(args):
    assert complexes._kron_columns(*args) == bits_kron_columns(*args)


@seed(20170624)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(complexes_of),
       st.sampled_from((1, 2, 29, 30, 31, 61)).flatmap(complexes_of))
def test_tensor_matches_the_bits_reference(a, b):
    t = tensor(a, b)
    assert (t.diff, t.iota) == bits_tensor_maps(a, b)


@st.composite
def tower_complexes(draw):
    """A complex whose first k generators are odd, so that the even class,
    and with it the tower representative, may start past a digit boundary."""
    n = draw(widths)
    k = draw(st.integers(0, n))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=n - k, max_size=n - k))
    return draw(complexes_of(n, st.just((1,) * k + tuple(offsets))))


@seed(20170624)
@settings(max_examples=40, deadline=None)
@given(tower_complexes())
def test_tower_matches_the_bits_reference(c):
    try:
        want = bits_tower(c)
    except RuntimeError:
        want = RuntimeError
    try:
        got = c._tower
    except ValueError:
        # no tower: the complex fails a validate check, which the error names
        got = RuntimeError
    assert got == want
