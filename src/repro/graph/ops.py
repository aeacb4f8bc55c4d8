"""Graph-matrix operations: normalization, self-loops, structure statistics.

These work on scipy sparse matrices (for original graphs) and on dense numpy
arrays (for small synthetic graphs), mirroring how the paper treats the two:
the original adjacency is constant data, the synthetic adjacency is a dense
learnable matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError

__all__ = [
    "canonical_csr",
    "add_self_loops",
    "remove_self_loops",
    "symmetric_normalize",
    "dense_symmetric_normalize",
    "edge_homophily",
    "adjacency_from_edges",
]


def _require_square(matrix) -> None:
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"expected a square adjacency, got {matrix.shape}")


def _sorted_unique(ids: np.ndarray, size: int) -> np.ndarray:
    """``np.unique`` of ids drawn from ``range(size)`` by marking — linear,
    no sort, and an order of magnitude faster than ``np.unique``'s hash
    path at delta and receptive-field sizes."""
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def canonical_csr(matrix, shape: tuple[int, int] | None = None, *,
                  name: str = "matrix") -> sp.csr_matrix:
    """``matrix`` as float64 CSR with duplicates summed and indices sorted.

    The one canonical form of the Eq. 3 / Eq. 11 inputs (the incremental
    ``a``, the intra ``ea``, the mapping ``M`` and the deployed base).
    Explicit zeros are kept.  A float64 CSR matrix already in that form is
    returned as it is; anything else is converted into fresh arrays, so
    the caller's are never written.  ``None`` is the empty matrix of
    ``shape`` and a 1-D dense input is one row.
    """
    if matrix is None:
        return sp.csr_matrix(shape, dtype=np.float64)
    if sp.issparse(matrix):
        csr = matrix.tocsr()
    else:
        csr = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
    if shape is not None and csr.shape != tuple(shape):
        raise GraphError(f"{name} has shape {csr.shape}, expected {shape}")
    if csr.dtype != np.float64 or not csr.has_canonical_format:
        # a copy when ``tocsr`` handed back the caller's own arrays
        csr = csr.astype(np.float64, copy=csr is matrix)
        csr.sum_duplicates()
    return csr


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (existing diagonal entries are replaced)."""
    _require_square(adjacency)
    adj = remove_self_loops(adjacency)
    eye = sp.identity(adj.shape[0], format="csr", dtype=np.float64)
    return (adj + eye).tocsr()


def remove_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Zero out the diagonal."""
    _require_square(adjacency)
    adj = adjacency.tocsr().astype(np.float64).copy()
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    return adj



def symmetric_normalize(adjacency: sp.spmatrix,
                        self_loops: bool = True) -> sp.csr_matrix:
    """GCN normalization ``D^{-1/2} (A [+ I]) D^{-1/2}`` (Eq. 1)."""
    _require_square(adjacency)
    adj = (add_self_loops(adjacency) if self_loops
           else adjacency.tocsr().astype(np.float64))
    scale = sp.diags(_inv_sqrt(np.asarray(adj.sum(axis=1)).reshape(-1)))
    return (scale @ adj @ scale).tocsr()


def _inv_sqrt(degree: np.ndarray) -> np.ndarray:
    """``D^{-1/2}`` with zero-degree rows left at zero — the masking every
    normalization shares (bitwise parity between paths depends on it)."""
    inv = np.zeros_like(degree)
    positive = degree > 0
    inv[positive] = degree[positive] ** -0.5
    return inv


def dense_symmetric_normalize(adjacency: np.ndarray,
                              self_loops: bool = True) -> np.ndarray:
    """Dense counterpart of :func:`symmetric_normalize` for synthetic graphs.

    Operates on plain numpy arrays; the differentiable version used inside
    MCond training lives in :mod:`repro.condense.gcond` (it must be built
    from tensor ops).
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    _require_square(adj)
    if self_loops:
        adj = adj.copy()
        np.fill_diagonal(adj, np.maximum(adj.diagonal(), 0.0) + 1.0)
    inv_sqrt = _inv_sqrt(adj.sum(axis=1))
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


def edge_homophily(adjacency: sp.spmatrix, labels: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label (self-loops excluded)."""
    adj = remove_self_loops(adjacency).tocoo()
    if adj.nnz == 0:
        return 0.0
    labels = np.asarray(labels)
    same = labels[adj.row] == labels[adj.col]
    return float(same.mean())


def adjacency_from_edges(edges: np.ndarray, num_nodes: int,
                         symmetric: bool = True) -> sp.csr_matrix:
    """Build a 0/1 CSR adjacency from an ``(m, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.min() < 0 or edges.max() >= num_nodes:
        raise GraphError("edge endpoints out of range")
    data = np.ones(edges.shape[0], dtype=np.float64)
    adj = sp.coo_matrix((data, (edges[:, 0], edges[:, 1])),
                        shape=(num_nodes, num_nodes)).tocsr()
    if symmetric:
        adj = adj.maximum(adj.T)
    adj.data[:] = 1.0
    return adj.tocsr()
