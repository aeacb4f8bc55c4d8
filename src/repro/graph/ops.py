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
    "add_self_loops",
    "remove_self_loops",
    "symmetric_normalize",
    "row_normalize",
    "normalize_adjacency",
    "symmetrize",
    "dense_symmetric_normalize",
    "edge_homophily",
    "connected_components_count",
    "adjacency_from_edges",
    "laplacian",
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


def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` (existing diagonal entries are replaced)."""
    _require_square(adjacency)
    adj = remove_self_loops(adjacency)
    eye = sp.identity(adj.shape[0], format="csr", dtype=np.float64) * weight
    return (adj + eye).tocsr()


def remove_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Zero out the diagonal."""
    _require_square(adjacency)
    adj = adjacency.tocsr().astype(np.float64).copy()
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    return adj


def symmetrize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Make the adjacency symmetric via ``max(A, A^T)``."""
    _require_square(adjacency)
    adj = adjacency.tocsr().astype(np.float64)
    return adj.maximum(adj.T).tocsr()


def symmetric_normalize(adjacency: sp.spmatrix,
                        self_loops: bool = True) -> sp.csr_matrix:
    """GCN normalization ``D^{-1/2} (A [+ I]) D^{-1/2}`` (Eq. 1)."""
    _require_square(adjacency)
    adj = (add_self_loops(adjacency) if self_loops
           else adjacency.tocsr().astype(np.float64))
    degree = np.asarray(adj.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = degree[positive] ** -0.5
    scale = sp.diags(inv_sqrt)
    return (scale @ adj @ scale).tocsr()


def row_normalize(adjacency: sp.spmatrix, self_loops: bool = False) -> sp.csr_matrix:
    """Random-walk normalization ``D^{-1} A`` used by label propagation."""
    _require_square(adjacency)
    adj = (add_self_loops(adjacency) if self_loops
           else adjacency.tocsr().astype(np.float64))
    degree = np.asarray(adj.sum(axis=1)).reshape(-1)
    inv = np.zeros_like(degree)
    positive = degree > 0
    inv[positive] = 1.0 / degree[positive]
    return (sp.diags(inv) @ adj).tocsr()


def normalize_adjacency(adjacency: sp.spmatrix, method: str = "sym",
                        self_loops: bool = True) -> sp.csr_matrix:
    """Dispatch to symmetric or row normalization by name."""
    if method == "sym":
        return symmetric_normalize(adjacency, self_loops=self_loops)
    if method == "row":
        return row_normalize(adjacency, self_loops=self_loops)
    raise GraphError(f"unknown normalization method {method!r}; use 'sym' or 'row'")


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
    degree = adj.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = degree[positive] ** -0.5
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


def edge_homophily(adjacency: sp.spmatrix, labels: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label (self-loops excluded)."""
    adj = remove_self_loops(adjacency).tocoo()
    if adj.nnz == 0:
        return 0.0
    labels = np.asarray(labels)
    same = labels[adj.row] == labels[adj.col]
    return float(same.mean())


def connected_components_count(adjacency: sp.spmatrix) -> int:
    """Number of connected components (undirected view)."""
    count, _ = sp.csgraph.connected_components(adjacency, directed=False)
    return int(count)


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


def laplacian(adjacency: sp.spmatrix, normalized: bool = True) -> sp.csr_matrix:
    """Graph Laplacian ``L = I - D^{-1/2} A D^{-1/2}`` (or ``D - A``).

    The normalized form is what ChebNet filters are defined over.
    """
    _require_square(adjacency)
    adj = remove_self_loops(adjacency)
    if normalized:
        norm = symmetric_normalize(adj, self_loops=False)
        eye = sp.identity(adj.shape[0], format="csr", dtype=np.float64)
        return (eye - norm).tocsr()
    degree = sp.diags(np.asarray(adj.sum(axis=1)).reshape(-1))
    return (degree - adj).tocsr()
