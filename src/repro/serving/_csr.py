"""CSR products on raw ``(data, indices, indptr)`` arrays: the C routines
scipy's public CSR products call, in scipy's steps, with no scipy matrix
built (its index-dtype scans, format checks and pruning cost a request
more than the arithmetic).  Each result is bitwise the public product's;
``tests/test_csr_kernel.py`` pins that contract on scipy's private API.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import (
    csr_eliminate_zeros, csr_has_sorted_indices, csr_matmat,
    csr_matmat_maxnnz, csr_matvec, csr_matvecs, csr_sort_indices)


class CSR(NamedTuple):
    """A CSR matrix's arrays; a scipy CSR matrix reads the same."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def matmat(a, b, columns: int) -> CSR:
    """``a @ b`` for a ``b`` of ``columns`` columns, stored as scipy stores
    it: zero sums dropped, each row in the fold's (unsorted) order."""
    rows = a.indptr.size - 1
    arrays = (a.indptr, a.indices, b.indptr, b.indices)
    # scipy's index dtype: int64 once an operand or the result needs it
    dtype = (np.int32 if all(np.can_cast(array.dtype, np.int32)
                             for array in arrays) else np.int64)
    a_indptr, a_indices, b_indptr, b_indices = (
        np.asarray(array, dtype=dtype) for array in arrays)
    nnz = csr_matmat_maxnnz(rows, columns, a_indptr, a_indices,
                            b_indptr, b_indices)
    if nnz > np.iinfo(np.int32).max:
        dtype = np.int64
        a_indptr, a_indices, b_indptr, b_indices = (
            array.astype(dtype) for array in arrays)
    data = np.empty(nnz, dtype=np.float64)
    indices = np.empty(nnz, dtype=dtype)
    indptr = np.empty(rows + 1, dtype=dtype)
    csr_matmat(rows, columns, a_indptr, a_indices, a.data,
               b_indptr, b_indices, b.data, indptr, indices, data)
    return CSR(data[:indptr[-1]], indices[:indptr[-1]], indptr)


def canonicalize(block: CSR) -> CSR:
    """scipy's ``eliminate_zeros()`` then ``sort_indices()``, in place on
    ``block``'s arrays; returns the block trimmed to its new size."""
    rows = block.indptr.size - 1
    csr_eliminate_zeros(rows, 0, block.indptr, block.indices, block.data)
    if not csr_has_sorted_indices(rows, block.indptr, block.indices):
        csr_sort_indices(rows, block.indptr, block.indices, block.data)
    nnz = block.indptr[-1]
    return CSR(block.data[:nnz], block.indices[:nnz], block.indptr)


def matvecs(a, dense: np.ndarray) -> np.ndarray:
    """``a @ dense`` for a 2-D float64 ``dense``: scipy's sequential
    per-row fold (``csr_matvec`` for one column, as scipy dispatches)."""
    rows = a.indptr.size - 1
    columns, width = dense.shape
    out = np.zeros((rows, width), dtype=np.float64)
    if width == 1:
        csr_matvec(rows, columns, a.indptr, a.indices, a.data,
                   dense.ravel(), out.ravel())
    else:
        csr_matvecs(rows, columns, width, a.indptr, a.indices, a.data,
                    dense.ravel(), out.ravel())
    return out
