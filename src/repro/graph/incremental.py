"""Attaching inductive nodes to a deployed graph (Eq. 3 and Eq. 11).

At inference time a batch of ``n`` unseen nodes arrives with features ``x``
and an *incremental adjacency* ``a`` recording their edges into the original
graph's ``N`` nodes.  Conventional GC must attach them to the original graph
(Eq. 3).  MCond instead converts ``a`` through the mapping matrix ``M`` into
weighted edges ``aM`` onto the ``N'`` synthetic nodes (Eq. 11).

The *graph batch* setting keeps the inductive-intra adjacency ``ea``; the
*node batch* setting zeroes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.ops import canonical_csr

__all__ = ["AttachedGraph", "attach_to_original", "attach_to_synthetic",
           "convert_connections"]


@dataclass(frozen=True)
class AttachedGraph:
    """An augmented graph with inductive nodes appended at the end.

    Attributes
    ----------
    adjacency:
        ``(B+n, B+n)`` CSR matrix where ``B`` is the deployed (base) graph
        size and ``n`` the number of inductive nodes.
    features:
        ``(B+n, d)`` feature matrix.
    base_size:
        ``B`` — nodes ``[0, B)`` belong to the deployed graph.
    num_new:
        ``n`` — nodes ``[B, B+n)`` are the inductive batch.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    base_size: int
    num_new: int

    @property
    def num_nodes(self) -> int:
        return self.base_size + self.num_new


def attach_to_original(
    base_adjacency: sp.spmatrix,
    base_features: np.ndarray,
    incremental: sp.spmatrix,
    new_features: np.ndarray,
    intra: sp.spmatrix | None = None,
) -> AttachedGraph:
    """Eq. (3): append inductive nodes to the *original* graph.

    Parameters
    ----------
    base_adjacency:
        ``(N, N)`` original adjacency ``A``.
    base_features:
        ``(N, d)`` original features ``X``.
    incremental:
        ``(n, N)`` incremental adjacency ``a`` (edges into the base graph).
    new_features:
        ``(n, d)`` features ``x`` of the inductive nodes.
    intra:
        Optional ``(n, n)`` adjacency ``ea`` among inductive nodes (graph
        batch); ``None`` means the node-batch setting (zero matrix).
    """
    base = canonical_csr(base_adjacency)
    num_base = base.shape[0]
    new_feats = np.asarray(new_features, dtype=np.float64)
    base_feats = np.asarray(base_features, dtype=np.float64)
    if new_feats.ndim != 2 or base_feats.ndim != 2:
        raise GraphError(
            f"features must be 2-D: base {base_feats.shape}, "
            f"new {new_feats.shape}")
    num_new = new_feats.shape[0]
    if base_feats.shape[0] != num_base:
        raise GraphError(
            f"base features rows ({base_feats.shape[0]}) != base nodes ({num_base})")
    if base_feats.shape[1] != new_feats.shape[1]:
        raise GraphError(
            f"feature dims differ: base {base_feats.shape[1]} "
            f"vs new {new_feats.shape[1]}")
    inc = canonical_csr(incremental, (num_new, num_base),
                        name="incremental adjacency")
    ea = canonical_csr(intra, (num_new, num_new), name="intra adjacency")
    augmented = sp.bmat([[base, inc.T], [inc, ea]], format="csr")
    features = np.vstack([base_feats, new_feats])
    return AttachedGraph(augmented, features, num_base, num_new)


def convert_connections(incremental: sp.spmatrix,
                        mapping: np.ndarray | sp.spmatrix) -> sp.csr_matrix:
    """Compute the converted connections ``aM`` of Eq. (11).

    ``incremental`` is the ``(n, N)`` incremental adjacency into the original
    graph; ``mapping`` is the ``(N, N')`` mapping matrix.  Returns a sparse
    ``(n, N')`` matrix of weighted edges onto the synthetic nodes.

    The input is brought to :func:`~repro.graph.ops.canonical_csr` form
    first: duplicated ``(row, col)`` entries are summed (a weighted
    multi-edge), and the ``a @ M`` accumulation order is deterministic.
    """
    inc = canonical_csr(incremental)
    if not sp.issparse(mapping):
        mapping = np.asarray(mapping, dtype=np.float64)
    if inc.shape[1] != mapping.shape[0]:
        raise GraphError(
            f"incremental columns ({inc.shape[1]}) != "
            f"mapping rows ({mapping.shape[0]})")
    if sp.issparse(mapping):
        # a float64 CSR mapping is multiplied as stored, never copied
        converted = (inc @ mapping.tocsr().astype(np.float64,
                                                  copy=False)).tocsr()
    else:
        converted = sp.csr_matrix(inc @ mapping)
    converted.eliminate_zeros()
    return converted


def attach_to_synthetic(
    synthetic_adjacency,
    synthetic_features: np.ndarray,
    incremental: sp.spmatrix,
    new_features: np.ndarray,
    mapping: np.ndarray | sp.spmatrix,
    intra: sp.spmatrix | None = None,
) -> AttachedGraph:
    """Eq. (11): append inductive nodes to the *synthetic* graph via ``aM``.

    Parameters mirror :func:`attach_to_original`, except the base graph is
    the synthetic one (``A'``, ``X'``) and ``mapping`` is the learned
    ``(N, N')`` matrix used to convert the incremental adjacency.
    """
    converted = convert_connections(incremental, mapping)
    return attach_to_original(
        synthetic_adjacency, synthetic_features, converted, new_features, intra)
