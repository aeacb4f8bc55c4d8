"""The :class:`Graph` container used across the library.

A ``Graph`` couples a sparse adjacency matrix with node features and
(optionally) integer class labels.  Original graphs in the paper are
unweighted and undirected; synthetic graphs produced by condensation are
dense and weighted and live in :class:`repro.condense.base.CondensedGraph`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """An attributed graph: CSR adjacency, feature matrix, optional labels.

    Parameters
    ----------
    adjacency:
        ``(N, N)`` scipy sparse matrix (any format; stored as CSR) or dense
        array.  Must be square and hold non-negative weights.
    features:
        ``(N, d)`` float feature matrix.
    labels:
        Optional ``(N,)`` integer labels in ``[0, num_classes)``.
    num_classes:
        Number of classes; inferred from labels when omitted.
    """

    def __init__(
        self,
        adjacency,
        features: np.ndarray,
        labels: np.ndarray | None = None,
        num_classes: int | None = None,
    ) -> None:
        if sp.issparse(adjacency):
            adj = adjacency.tocsr().astype(np.float64)
        else:
            adj = sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got {adj.shape}")
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2:
            raise GraphError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[0] != adj.shape[0]:
            raise GraphError(
                f"feature rows ({feats.shape[0]}) != number of nodes ({adj.shape[0]})")
        # ``min`` is NaN when any weight is, and NaN >= 0 is False
        if adj.nnz and not (adj.data.min() >= 0
                            and np.isfinite(adj.data.max())):
            raise GraphError(
                "adjacency weights must be non-negative and finite")

        self.adjacency: sp.csr_matrix = adj
        self.features: np.ndarray = feats
        self.labels: np.ndarray | None = None
        if labels is not None:
            lab = np.asarray(labels)
            if lab.shape != (adj.shape[0],):
                raise GraphError(
                    f"labels shape {lab.shape} != ({adj.shape[0]},)")
            self.labels = lab.astype(np.int64)
        if num_classes is None and self.labels is not None and self.labels.size:
            num_classes = int(self.labels.max()) + 1
        self.num_classes: int = int(num_classes) if num_classes is not None else 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (nnz of the adjacency)."""
        return int(self.adjacency.nnz)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Out-degree (= in-degree for symmetric graphs) of every node."""
        return np.asarray(self.adjacency.sum(axis=1)).reshape(-1)

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        diff = self.adjacency - self.adjacency.T
        if diff.nnz == 0:
            return True
        return bool(np.abs(diff.data).max() <= tol)

    def has_self_loops(self) -> bool:
        return bool((self.adjacency.diagonal() != 0).any())

    def __repr__(self) -> str:
        label_part = f", classes={self.num_classes}" if self.num_classes else ""
        return (
            f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"features={self.feature_dim}{label_part})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_adj = (self.adjacency != other.adjacency).nnz == 0
        same_feat = np.array_equal(self.features, other.features)
        if self.labels is None or other.labels is None:
            same_lab = self.labels is None and other.labels is None
        else:
            same_lab = np.array_equal(self.labels, other.labels)
        return bool(same_adj and same_feat and same_lab)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, indices: np.ndarray) -> "Graph":
        """Induced subgraph on ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise GraphError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_nodes):
            raise GraphError(
                f"indices out of range [0, {self.num_nodes}): "
                f"min={idx.min()}, max={idx.max()}")
        if idx.size != np.unique(idx).size:
            raise GraphError("subgraph indices must be unique")
        adj = self.adjacency[idx][:, idx]
        labels = self.labels[idx] if self.labels is not None else None
        return Graph(adj, self.features[idx], labels, self.num_classes or None)

    def cross_adjacency(self, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
        """The ``(len(rows), len(cols))`` block of the adjacency matrix.

        This is the incremental adjacency ``a`` of Eq. (3): rows are
        inductive nodes, columns are nodes of the original graph.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self.adjacency[rows][:, cols].tocsr()

    def copy(self) -> "Graph":
        labels = None if self.labels is None else self.labels.copy()
        return Graph(self.adjacency.copy(), self.features.copy(), labels,
                     self.num_classes or None)
