"""The raw-array CSR kernel against scipy's public products, bit for bit.

``repro.serving._csr`` calls scipy's private ``_sparsetools`` routines
directly.  This contract was written against scipy 1.17.1: a scipy
release that changes those routines' signatures or steps fails here,
not in a serving parity test far away.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.serving._csr import CSR, canonicalize, matmat, matvecs

#: values whose products and sums cancel to exact zeros
VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 0.1, -0.3])


@st.composite
def blocks(draw, rows: int, columns: int, *, duplicates: bool = True):
    """Raw CSR arrays of a ``rows x columns`` block: empty rows, explicit
    zeros, unsorted columns, int32 or int64 indices, and (unless
    ``duplicates`` is off) repeated columns in a row."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    data, indices, indptr = [], [], [0]
    for _ in range(rows):
        if duplicates:
            cols = draw(st.lists(st.integers(0, columns - 1), max_size=5))
        else:
            cols = draw(st.permutations(range(columns)))[
                :draw(st.integers(0, columns))]
        indices += cols
        data += [draw(VALUES) for _ in cols]
        indptr.append(len(indices))
    return CSR(np.array(data, dtype=np.float64),
               np.array(indices, dtype=dtype), np.array(indptr, dtype=dtype))


def _scipy(block: CSR, columns: int) -> sp.csr_matrix:
    """A scipy matrix over copies of ``block``'s arrays."""
    return sp.csr_matrix(CSR(*(array.copy() for array in block)),
                         shape=(block.indptr.size - 1, columns))


def _product_index_dtype(a: CSR, b: CSR) -> np.dtype:
    """The index dtype scipy's ``_matmul_sparse`` gives ``a @ b`` on
    operands holding these arrays: ``_get_index_dtype`` over the four
    index arrays.  A matrix built from the raw arrays cannot tell: its
    constructor downcasts int64 indices that fit in int32."""
    return np.dtype(sp.csr_matrix((1, 1))._get_index_dtype(
        (a.indptr, a.indices, b.indptr, b.indices)))


def _assert_bitwise(ours: CSR, theirs: sp.csr_matrix) -> None:
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert ours.data.dtype == np.float64
    assert ours.data.tobytes() == theirs.data.tobytes()


SIZES = st.integers(1, 6)


@settings(max_examples=150, deadline=None)
@given(st.data(), SIZES, SIZES, SIZES)
def test_matmat_is_the_public_product(data, rows, inner, columns):
    a = data.draw(blocks(rows, inner))
    b = data.draw(blocks(inner, columns))
    ours = matmat(a, b, columns)
    _assert_bitwise(ours, _scipy(a, inner) @ _scipy(b, columns))
    dtype = _product_index_dtype(a, b)
    assert ours.indices.dtype == ours.indptr.dtype == dtype


@settings(max_examples=150, deadline=None)
@given(st.data(), SIZES, SIZES, SIZES)
def test_canonical_product_is_eliminate_then_sort(data, rows, inner, columns):
    """The steps of ``convert_connections``: ``a @ M``, drop zeros,
    sort indices."""
    a = data.draw(blocks(rows, inner))
    b = data.draw(blocks(inner, columns))
    theirs = _scipy(a, inner) @ _scipy(b, columns)
    theirs.eliminate_zeros()
    theirs.sort_indices()
    _assert_bitwise(canonicalize(matmat(a, b, columns)), theirs)


@settings(max_examples=150, deadline=None)
@given(st.data(), SIZES, SIZES, st.booleans())
def test_canonicalize_is_eliminate_then_sort(data, rows, columns,
                                             duplicates):
    block = data.draw(blocks(rows, columns, duplicates=duplicates))
    theirs = _scipy(block, columns)
    theirs.eliminate_zeros()
    theirs.sort_indices()
    _assert_bitwise(canonicalize(CSR(*(a.copy() for a in block))), theirs)


@settings(max_examples=150, deadline=None)
@given(st.data(), SIZES, SIZES, st.integers(1, 4))
def test_matvecs_is_the_public_product(data, rows, columns, width):
    """``width == 1`` is scipy's one-vector dispatch (``csr_matvec``)."""
    block = data.draw(blocks(rows, columns))
    dense = np.array(data.draw(st.lists(VALUES, min_size=columns * width,
                                        max_size=columns * width)),
                     dtype=np.float64).reshape(columns, width)
    ours = matvecs(block, dense)
    theirs = _scipy(block, columns) @ dense
    assert ours.shape == theirs.shape == (rows, width)
    assert ours.tobytes() == theirs.tobytes()


def test_empty_product_keeps_its_rows():
    a = CSR(np.zeros(0), np.zeros(0, dtype=np.int32),
            np.zeros(4, dtype=np.int32))
    out = canonicalize(matmat(a, a, 3))
    assert out.data.size == 0 and np.array_equal(out.indptr, np.zeros(4))
