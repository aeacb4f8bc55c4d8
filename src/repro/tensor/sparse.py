"""Sparse-matrix support for the autodiff engine.

Large original-graph adjacency matrices are stored as *constant*
``scipy.sparse`` CSR matrices.  Only the dense operand of a sparse-dense
product is differentiable, which matches every use in the paper: the
original adjacency ``A`` is data, while synthetic features/adjacency and the
mapping matrix are dense trainable tensors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, make_op

__all__ = ["spmm", "sparse_memory_bytes", "dense_memory_bytes"]


def spmm(sparse_const: sp.spmatrix, dense: Tensor) -> Tensor:
    """Product ``sparse_const @ dense`` with gradients for ``dense`` only.

    The sparse operand is treated as a constant; its transpose is captured
    for the backward pass (``grad_dense = sparse.T @ grad_out``), which is
    itself an :func:`spmm` so double-backward works.  The transpose is
    built only when the product goes on the tape (grad enabled and
    ``dense`` requires grad) — under ``no_grad`` or for a constant operand
    the product is all there is.
    """
    if not sp.issparse(sparse_const):
        raise ShapeError("spmm expects a scipy sparse matrix as first operand")
    matrix = sparse_const.tocsr()
    dense = as_tensor(dense)
    if dense.ndim not in (1, 2):
        raise ShapeError(f"spmm expects a 1-D or 2-D dense operand, got {dense.shape}")
    if matrix.shape[1] != dense.shape[0]:
        raise ShapeError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}")
    out_data = np.asarray(matrix @ dense.data)
    if not (is_grad_enabled() and dense.requires_grad):
        return Tensor(out_data)
    matrix_t = matrix.T.tocsr()

    def backward(g: Tensor):
        return (spmm(matrix_t, g),)

    return make_op(out_data, (dense,), backward, "spmm")


def sparse_memory_bytes(matrix: sp.spmatrix) -> int:
    """Bytes needed to store a CSR matrix (data + indices + indptr)."""
    csr = matrix.tocsr()
    return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def dense_memory_bytes(array: np.ndarray) -> int:
    """Bytes needed to store a dense array."""
    return int(np.asarray(array).nbytes)
