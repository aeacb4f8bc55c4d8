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

    def inductive_indices(self) -> np.ndarray:
        """Row indices of the inductive nodes in the augmented graph."""
        return np.arange(self.base_size, self.base_size + self.num_new)


def _as_csr(matrix, shape: tuple[int, int], name: str) -> sp.csr_matrix:
    if matrix is None:
        return sp.csr_matrix(shape, dtype=np.float64)
    csr = matrix.tocsr().astype(np.float64) if sp.issparse(matrix) else sp.csr_matrix(
        np.asarray(matrix, dtype=np.float64))
    if csr.shape != shape:
        raise GraphError(f"{name} has shape {csr.shape}, expected {shape}")
    return csr


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
    base = (base_adjacency.tocsr().astype(np.float64)
            if sp.issparse(base_adjacency)
            else sp.csr_matrix(np.asarray(base_adjacency, dtype=np.float64)))
    num_base = base.shape[0]
    new_feats = np.asarray(new_features, dtype=np.float64)
    num_new = new_feats.shape[0]
    base_feats = np.asarray(base_features, dtype=np.float64)
    if base_feats.shape[0] != num_base:
        raise GraphError(
            f"base features rows ({base_feats.shape[0]}) != base nodes ({num_base})")
    if base_feats.shape[1] != new_feats.shape[1]:
        raise GraphError(
            f"feature dims differ: base {base_feats.shape[1]} "
            f"vs new {new_feats.shape[1]}")
    inc = _as_csr(incremental, (num_new, num_base), "incremental adjacency")
    ea = _as_csr(intra, (num_new, num_new), "intra adjacency")
    augmented = sp.bmat([[base, inc.T], [inc, ea]], format="csr")
    features = np.vstack([base_feats, new_feats])
    return AttachedGraph(augmented, features, num_base, num_new)


def _canonical_incremental(incremental, dedup: str) -> sp.csr_matrix:
    """Canonicalize the raw incremental adjacency under a dedup policy.

    Edge feeds (COO triplet lists, logs of arrivals) can name the same
    ``(row, col)`` pair more than once.  Before this was made explicit,
    duplicated pairs were silently *summed* by the CSR conversion —
    double-counting what the producer meant as one edge.  The policy is
    now a named choice:

    - ``"sum"`` (default) — duplicates accumulate weight, canonicalized
      with ``sum_duplicates()`` so the ``a @ M`` accumulation order is
      deterministic.  This keeps the historical Eq. (11) semantics for
      genuinely weighted multi-edges.  A float64 CSR input already in
      canonical form is returned as it is; anything else is canonicalized
      in a copy, so the caller's arrays are never written.
    - ``"distinct"`` — duplicated pairs collapse to a single edge keeping
      the largest weight (for 0/1 adjacencies: exactly one edge), the
      right policy for at-least-once edge feeds.
    """
    if dedup not in ("sum", "distinct"):
        raise GraphError(f"dedup must be 'sum' or 'distinct', got {dedup!r}")
    if not sp.issparse(incremental):
        # a dense array cannot express duplicate entries
        return sp.csr_matrix(np.asarray(incremental, dtype=np.float64))
    if dedup == "sum":
        inc = incremental.tocsr()
        if inc.dtype == np.float64 and inc.has_canonical_format:
            return inc
        inc = inc.astype(np.float64)
        inc.sum_duplicates()
        return inc
    coo = incremental.tocoo()
    if coo.nnz == 0:
        return sp.csr_matrix(coo.shape, dtype=np.float64)
    order = np.lexsort((coo.data, coo.col, coo.row))
    row, col = coo.row[order], coo.col[order]
    data = coo.data.astype(np.float64)[order]
    # the last entry of each sorted duplicate run holds the max weight
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (row[:-1] != row[1:]) | (col[:-1] != col[1:])
    return sp.csr_matrix((data[last], (row[last], col[last])), shape=coo.shape)


def convert_connections(incremental: sp.spmatrix,
                        mapping: np.ndarray | sp.spmatrix, *,
                        dedup: str = "sum") -> sp.csr_matrix:
    """Compute the converted connections ``aM`` of Eq. (11).

    ``incremental`` is the ``(n, N)`` incremental adjacency into the original
    graph; ``mapping`` is the ``(N, N')`` mapping matrix.  Returns a sparse
    ``(n, N')`` matrix of weighted edges onto the synthetic nodes.

    ``dedup`` names the policy for duplicated ``(row, col)`` entries in
    the raw input (see :func:`_canonical_incremental`): ``"sum"``
    accumulates them, ``"distinct"`` collapses them to one edge.  Either
    way the input is canonicalized first, so duplicate entries can no
    longer be double-counted silently by the CSR conversion.
    """
    inc = _canonical_incremental(incremental, dedup)
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
    dedup: str = "sum",
) -> AttachedGraph:
    """Eq. (11): append inductive nodes to the *synthetic* graph via ``aM``.

    Parameters mirror :func:`attach_to_original`, except the base graph is
    the synthetic one (``A'``, ``X'``) and ``mapping`` is the learned
    ``(N, N')`` matrix used to convert the incremental adjacency.
    ``dedup`` is the duplicate-entry policy forwarded to
    :func:`convert_connections`.
    """
    converted = convert_connections(incremental, mapping, dedup=dedup)
    return attach_to_original(
        synthetic_adjacency, synthetic_features, converted, new_features, intra)
