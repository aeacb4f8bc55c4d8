"""Streaming graph evolution: deltas over a deployed base graph.

The paper's inductive regime (Eq. 3 / Eq. 11) condenses once and then
serves unseen nodes forever — but the *deployed base graph* it serves
against is frozen at bundle time.  Real deployments evolve: nodes join
permanently, edges appear and disappear, features drift.  This module is
the delta model for that evolution:

- :class:`GraphDelta` — one atomic change set: append nodes (with their
  edges into the existing graph), add/remove edges, update feature rows;
- :class:`StreamingGraph` — applies deltas to a canonical-CSR adjacency
  with *row splicing*: only the rows an edge change touches are rebuilt,
  every untouched row's index/data bytes are copied verbatim
  (:func:`splice_csr_rows`), so the post-delta matrix is bit-identical
  to a from-scratch canonical construction;
- :func:`make_delta_trace` — a deterministic delta-replay workload
  generator that promotes a dataset's inductive batch into the base
  graph delta by delta, with optional edge churn and feature drift.

:class:`repro.serving.prepared.PreparedDeployment.apply_delta` consumes
the same deltas: it splices what exact serving reads at once and drops
the derived warm caches for their next read to rebuild; the parity
suite asserts that state, once read, is bit-for-bit what a from-scratch
``prepare()`` on the post-delta graph produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.ops import _sorted_unique, canonical_csr

__all__ = ["GraphDelta", "DeltaEffect", "StreamingGraph", "splice_csr_rows",
           "csr_row_positions", "grow_buffer", "make_delta_trace"]


def csr_row_positions(indptr, rows: np.ndarray) -> np.ndarray:
    """Flat positions of the stored entries of ``rows``, in row order.

    The one copy of the start/cumsum gather arithmetic every row-wise
    gather and refresh in the streaming stack shares.
    """
    starts = indptr[rows].astype(np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    rep = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    within = (np.arange(total, dtype=np.int64)
              - np.repeat(np.cumsum(counts) - counts, counts))
    return starts[rep] + within


def grow_buffer(buffer: np.ndarray, rows_needed: int,
                rows_valid: int) -> np.ndarray:
    """Row-capacity growth for an append-mostly 2-D buffer.

    Returns ``buffer`` unchanged when it already holds ``rows_needed``
    rows; otherwise allocates geometrically (so repeated appends
    amortize to O(1) per row) and copies the first ``rows_valid`` rows.
    """
    if rows_needed <= buffer.shape[0]:
        return buffer
    capacity = max(rows_needed, buffer.shape[0] + (buffer.shape[0] >> 1) + 8)
    grown = np.empty((capacity, buffer.shape[1]), dtype=buffer.dtype)
    grown[:rows_valid] = buffer[:rows_valid]
    return grown


def _as_edge_array(edges, name: str) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"{name} must have shape (k, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GraphDelta:
    """One atomic change to a streaming base graph.

    Attributes
    ----------
    add_features:
        ``(m, d)`` features of nodes appended to the graph (ids
        ``[N, N+m)`` after the append, where ``N`` is the pre-delta size).
    add_labels:
        Optional ``(m,)`` labels for the appended nodes; required when the
        base graph carries labels (pass ``-1`` for unknown).
    add_edges / add_weights:
        ``(k, 2)`` edge endpoints to insert (may reference appended nodes)
        with optional positive weights (default 1.0).  Inserting an edge
        that already exists *adds* to its weight; duplicated pairs inside
        one delta are canonicalized by summation first.
    remove_edges:
        ``(k, 2)`` endpoints of edges to delete.  Removing an edge the
        graph does not hold is an error — replay traces are exact.
    update_index / update_features:
        Feature rows of *existing* nodes to overwrite.
    symmetric:
        Apply edge changes in both directions (the paper's graphs are
        undirected); self-loops are applied once.
    """

    add_features: np.ndarray | None = None
    add_labels: np.ndarray | None = None
    add_edges: np.ndarray | None = None
    add_weights: np.ndarray | None = None
    remove_edges: np.ndarray | None = None
    update_index: np.ndarray | None = None
    update_features: np.ndarray | None = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.add_features is not None:
            feats = np.ascontiguousarray(self.add_features, dtype=np.float64)
            if feats.ndim != 2:
                raise GraphError(
                    f"add_features must be 2-D, got shape {feats.shape}")
            object.__setattr__(self, "add_features", feats)
        if self.add_labels is not None:
            if self.add_features is None:
                raise GraphError("add_labels given without add_features")
            labels = np.asarray(self.add_labels, dtype=np.int64)
            if labels.shape != (self.num_new_nodes,):
                raise GraphError(
                    f"add_labels shape {labels.shape} != "
                    f"({self.num_new_nodes},)")
            object.__setattr__(self, "add_labels", labels)
        edges = (_as_edge_array(self.add_edges, "add_edges")
                 if self.add_edges is not None
                 else np.empty((0, 2), np.int64))
        object.__setattr__(self, "add_edges", edges)
        removed = (_as_edge_array(self.remove_edges, "remove_edges")
                   if self.remove_edges is not None
                   else np.empty((0, 2), np.int64))
        object.__setattr__(self, "remove_edges", removed)
        if self.add_weights is not None:
            weights = np.asarray(self.add_weights, dtype=np.float64)
            if weights.shape != (edges.shape[0],):
                raise GraphError(
                    f"add_weights shape {weights.shape} != ({edges.shape[0]},)")
            # ``min`` is NaN when any weight is, and NaN > 0 is False
            if weights.size and not (weights.min() > 0
                                     and np.isfinite(weights.max())):
                raise GraphError("edge weights must be positive and finite")
            object.__setattr__(self, "add_weights", weights)
        else:
            object.__setattr__(self, "add_weights",
                               np.ones(edges.shape[0], dtype=np.float64))
        if (self.update_index is None) != (self.update_features is None):
            raise GraphError(
                "update_index and update_features must be given together")
        if self.update_index is not None:
            idx = np.asarray(self.update_index, dtype=np.int64)
            values = np.ascontiguousarray(self.update_features,
                                          dtype=np.float64)
            if idx.ndim != 1 or values.ndim != 2 or values.shape[0] != idx.size:
                raise GraphError(
                    f"feature update shapes mismatch: index {idx.shape}, "
                    f"values {values.shape}")
            if idx.size and idx.min() < 0:
                raise GraphError("update_index must reference existing nodes")
            if np.unique(idx).size != idx.size:
                raise GraphError("update_index must be unique")
            object.__setattr__(self, "update_index", idx)
            object.__setattr__(self, "update_features", values)

    # ------------------------------------------------------------------
    @property
    def num_new_nodes(self) -> int:
        return 0 if self.add_features is None else int(self.add_features.shape[0])

    def is_noop(self) -> bool:
        """True when applying this delta changes nothing."""
        return (self.num_new_nodes == 0 and self.add_edges.shape[0] == 0
                and self.remove_edges.shape[0] == 0
                and self.update_index is None)


@dataclass(frozen=True)
class DeltaEffect:
    """What one applied delta changed.

    ``touched_rows`` are post-delta row ids (appended rows included)
    whose adjacency row was rebuilt; ``feature_rows`` are rows whose
    features changed (updates plus appended rows).  ``replaced_block`` /
    ``appended_block`` are the rebuilt adjacency rows themselves (the
    touched existing rows in order, then the appended rows) so downstream
    caches can refresh without re-slicing the full matrix.
    """

    graph: Graph
    touched_rows: np.ndarray
    feature_rows: np.ndarray
    appended: int
    num_nodes: int
    replaced_block: sp.csr_matrix | None = None
    appended_block: sp.csr_matrix | None = None


# ----------------------------------------------------------------------
# Row splicing
# ----------------------------------------------------------------------
def _kept_row_runs(rows: np.ndarray,
                   num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end rows of the ``[start, end)`` runs of
    ``range(num_rows)`` between the strictly increasing ``rows``: one
    before each of them and one after the last (runs may be empty)."""
    return (np.concatenate(([0], rows + 1)),
            np.concatenate((rows, [num_rows])))


def _splice_rows(matrix: sp.csr_matrix, rows: np.ndarray, data: np.ndarray,
                 indices: np.ndarray, indptr: np.ndarray,
                 width: int) -> sp.csr_matrix:
    """:func:`splice_csr_rows` on raw block arrays: the first
    ``len(rows)`` rows of ``(data, indices, indptr)`` replace ``rows``,
    any further rows are appended.  The result is one concatenation of
    slices: runs of kept rows interleaved with the block's rows."""
    block_counts = np.diff(indptr)
    counts = np.diff(matrix.indptr).astype(np.int64)
    counts[rows] = block_counts[:rows.size]
    out_indptr = np.concatenate(
        ([0], np.cumsum(np.concatenate((counts, block_counts[rows.size:])))))
    # the index dtype scipy would pick, so its constructor neither scans
    # nor copies the arrays
    index_dtype = (np.int32 if max(int(out_indptr[-1]), out_indptr.size, width)
                   < np.iinfo(np.int32).max else np.int64)
    cuts = indptr.tolist()
    # block row i follows kept run i; the appended rows follow the last run
    block_spans = zip(cuts[:rows.size + 1], cuts[1:rows.size + 1] + cuts[-1:])
    starts, ends = _kept_row_runs(rows, matrix.shape[0])
    kept_spans = zip(matrix.indptr[starts].tolist(),
                     matrix.indptr[ends].tolist())
    index_parts, data_parts = [], []
    for (start, end), (lo, hi) in zip(kept_spans, block_spans):
        index_parts += (matrix.indices[start:end], indices[lo:hi])
        data_parts += (matrix.data[start:end], data[lo:hi])
    out = sp.csr_matrix(
        (np.concatenate(data_parts, dtype=np.float64),
         np.concatenate(index_parts, dtype=index_dtype),
         out_indptr.astype(index_dtype)),
        shape=(out_indptr.size - 1, width))
    out.has_sorted_indices = True
    return out


def splice_csr_rows(matrix: sp.csr_matrix, rows: np.ndarray,
                    block: sp.csr_matrix, *, num_cols: int | None = None,
                    append: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Replace ``rows`` of ``matrix`` with the rows of ``block``.

    Untouched rows keep their index/data bytes verbatim (copied as whole
    runs between replaced rows); the column dimension may widen to
    ``num_cols`` and ``append`` rows may be stacked at the bottom.
    ``rows`` must be strictly increasing and ``block`` must hold
    ``len(rows)`` canonical (column-sorted) rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    num_rows = matrix.shape[0]
    width = int(num_cols) if num_cols is not None else int(matrix.shape[1])
    if width < matrix.shape[1]:
        raise GraphError("splice cannot narrow the column dimension")
    if rows.size != block.shape[0]:
        raise GraphError(
            f"{rows.size} rows to replace but block has {block.shape[0]}")
    if rows.size > 1 and np.any(rows[1:] <= rows[:-1]):
        raise GraphError("replacement rows must be strictly increasing")
    if rows.size and (rows[0] < 0 or rows[-1] >= num_rows):
        raise GraphError(f"replacement rows out of range [0, {num_rows})")
    data, indices, indptr = block.data, block.indices, block.indptr
    if append is not None and append.shape[0]:
        data = np.concatenate((data, append.data))
        indices = np.concatenate((indices, append.indices))
        indptr = np.concatenate((indptr, append.indptr[1:] + indptr[-1]))
    return _splice_rows(matrix, rows, data, indices, indptr, width)


# ----------------------------------------------------------------------
# The streaming graph
# ----------------------------------------------------------------------
class StreamingGraph:
    """A deployed base graph that evolves by :class:`GraphDelta`.

    The adjacency is held in canonical CSR form (duplicates summed,
    indices sorted); every :meth:`apply` produces a new canonical matrix
    by splicing only the touched rows, so repeated deltas never pay a
    whole-matrix rebuild and the result is bit-identical to constructing
    the post-delta graph from scratch.
    """

    def __init__(self, graph: Graph) -> None:
        adjacency = canonical_csr(graph.adjacency)
        # The stream owns its feature storage: an amortized-capacity
        # buffer (grown geometrically on appends) whose leading rows the
        # current graph views.  Feature updates mutate rows in place, so
        # `self.graph` is a *live view* of the stream, not a snapshot.
        self._feat_buffer = np.array(graph.features, dtype=np.float64,
                                     order="C", copy=True)
        self.graph = Graph(adjacency, self._feat_buffer, graph.labels,
                           graph.num_classes or None)
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def _oriented(self, edges: np.ndarray, weights: np.ndarray | None,
                  symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        """Expand ``(k, 2)`` pairs into directed entries (mirror when
        symmetric, self-loops applied once)."""
        if edges.shape[0] == 0:
            empty = np.empty(0, np.int64)
            return np.empty((0, 2), np.int64), (
                np.empty(0, np.float64) if weights is not None else empty)
        if symmetric:
            off = edges[edges[:, 0] != edges[:, 1]]
            mirrored = np.vstack([edges, off[:, ::-1]])
            if weights is not None:
                weights = np.concatenate(
                    [weights, weights[edges[:, 0] != edges[:, 1]]])
            return mirrored, weights
        return edges, weights

    def apply(self, delta: GraphDelta) -> DeltaEffect:
        """Apply one delta; returns the :class:`DeltaEffect` and advances
        the stream (``self.graph`` is the post-delta graph)."""
        graph = self.graph
        old_n = graph.num_nodes
        m = delta.num_new_nodes
        new_n = old_n + m
        if delta.is_noop():
            return DeltaEffect(graph, np.empty(0, np.int64),
                               np.empty(0, np.int64), 0, old_n)

        if m and delta.add_features.shape[1] != graph.feature_dim:
            raise GraphError(
                f"appended feature dim {delta.add_features.shape[1]} != "
                f"graph feature dim {graph.feature_dim}")
        for name, edges in (("add_edges", delta.add_edges),
                            ("remove_edges", delta.remove_edges)):
            if edges.size and (edges.min() < 0 or edges.max() >= new_n):
                raise GraphError(
                    f"{name} endpoints out of range [0, {new_n})")
        if delta.remove_edges.size and delta.remove_edges.max() >= old_n:
            raise GraphError("remove_edges cannot reference appended nodes")
        if delta.update_index is not None:
            if delta.update_index.size and delta.update_index.max() >= old_n:
                raise GraphError("update_index must reference existing nodes")
            if delta.update_features.shape[1] != graph.feature_dim:
                raise GraphError(
                    f"update feature dim {delta.update_features.shape[1]} != "
                    f"graph feature dim {graph.feature_dim}")

        add, weights = self._oriented(delta.add_edges, delta.add_weights,
                                      delta.symmetric)
        remove, _ = self._oriented(delta.remove_edges, None, delta.symmetric)
        add_keys = add[:, 0] * new_n + add[:, 1] if add.size else add[:, 0]
        remove_keys = (remove[:, 0] * new_n + remove[:, 1]
                       if remove.size else remove[:, 0])
        if add.size and remove.size and np.isin(add_keys, remove_keys).any():
            raise GraphError(
                "a delta may not add and remove the same edge")

        touched = _sorted_unique(np.concatenate(
            [add[:, 0], remove[:, 0], np.arange(old_n, new_n)]), new_n)
        touched_existing = touched[touched < old_n]

        replaced = self._rebuilt_rows(graph.adjacency, touched_existing, add,
                                      weights, remove_keys, new_n,
                                      check_removals=True)
        appended_block = None
        if m:
            appended_block = self._rebuilt_rows(
                None, np.arange(old_n, new_n, dtype=np.int64), add, weights,
                remove_keys, new_n, check_removals=False)
        adjacency = splice_csr_rows(graph.adjacency, touched_existing,
                                    replaced, num_cols=new_n,
                                    append=appended_block)
        features = self._next_features(delta, old_n, new_n, m)
        labels = self._next_labels(graph, delta, m)
        self.graph = self._wrap_graph(adjacency, features, labels,
                                      graph.num_classes)
        self.version += 1
        feature_rows = np.arange(old_n, new_n)
        if delta.update_index is not None:
            feature_rows = _sorted_unique(np.concatenate(
                [delta.update_index, feature_rows]), new_n)
        return DeltaEffect(self.graph, touched, feature_rows, m, new_n,
                           replaced_block=replaced,
                           appended_block=appended_block)

    def _rebuilt_rows(self, adjacency, rows, add, weights, remove_keys,
                      new_n, check_removals):
        """Canonical post-delta content of ``rows`` as a small CSR block.

        Pure numpy: old entries (minus removals) and added entries are
        merged by a stable sort on ``(row, col)`` and duplicate runs are
        summed with ``np.add.reduceat`` — deterministic, column-sorted,
        no intermediate scipy matrices.
        """
        member = np.zeros(new_n, dtype=bool)
        member[rows] = True
        if adjacency is not None and rows.size:
            src = csr_row_positions(adjacency.indptr, rows)
            rep = np.repeat(np.arange(rows.size, dtype=np.int64),
                            adjacency.indptr[rows + 1] - adjacency.indptr[rows])
            old_cols = adjacency.indices[src].astype(np.int64)
            old_vals = adjacency.data[src]
            if remove_keys.size:
                # a canonical row's entry keys are unique, and a repeated
                # remove key can only flag an entry, never unflag one
                hit = np.isin(rows[rep] * new_n + old_cols, remove_keys,
                              assume_unique=True)
                if check_removals:
                    expected = int(member[remove_keys // new_n].sum())
                    if int(hit.sum()) != expected:
                        raise GraphError(
                            "remove_edges references edges the graph does "
                            "not hold")
                keep = ~hit
                rep, old_cols, old_vals = rep[keep], old_cols[keep], old_vals[keep]
        else:
            rep = np.empty(0, np.int64)
            old_cols = np.empty(0, np.int64)
            old_vals = np.empty(0, np.float64)
        if add.size:
            sel = member[add[:, 0]]
            if sel.any():
                rep = np.concatenate(
                    [rep, np.searchsorted(rows, add[sel, 0])])
                old_cols = np.concatenate([old_cols, add[sel, 1]])
                old_vals = np.concatenate([old_vals, weights[sel]])
        key = rep * new_n + old_cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        boundary = np.ones(key.size, dtype=bool)
        boundary[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(boundary)
        if starts.size:
            data = np.add.reduceat(old_vals[order], starts)
        else:
            data = np.empty(0, np.float64)
        cols = key[starts] % new_n
        counts = np.bincount(key[starts] // new_n, minlength=rows.size)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        block = sp.csr_matrix((data, cols, indptr),
                              shape=(rows.size, new_n))
        block.has_sorted_indices = True
        return block

    @staticmethod
    def _wrap_graph(adjacency, features, labels, num_classes) -> Graph:
        """Wrap pre-validated canonical arrays without :class:`Graph`'s
        defensive copies — every invariant (square float64 CSR, positive
        weights, matching feature rows, int64 labels) holds by
        construction here, and re-validating would copy O(nnz) arrays on
        every delta."""
        graph = Graph.__new__(Graph)
        graph.adjacency = adjacency
        graph.features = features
        graph.labels = labels
        graph.num_classes = int(num_classes)
        return graph

    def _next_features(self, delta, old_n, new_n, m) -> np.ndarray:
        buffer = grow_buffer(self._feat_buffer, new_n, old_n)
        self._feat_buffer = buffer
        if delta.update_index is not None:
            buffer[delta.update_index] = delta.update_features
        if m:
            buffer[old_n:new_n] = delta.add_features
        return buffer[:new_n]

    @staticmethod
    def _next_labels(graph, delta, m) -> np.ndarray | None:
        if graph.labels is None:
            if delta.add_labels is not None:
                raise GraphError("cannot add labels to an unlabeled graph")
            return None
        if m == 0:
            return graph.labels
        appended = (delta.add_labels if delta.add_labels is not None
                    else np.full(m, -1, dtype=np.int64))
        return np.concatenate([graph.labels, appended])


# ----------------------------------------------------------------------
# Delta-replay workload generation
# ----------------------------------------------------------------------
def make_delta_trace(base: Graph, batch: IncrementalBatch, *,
                     num_deltas: int, nodes_per_delta: int = 1,
                     edges_per_delta: int = 0, removals_per_delta: int = 0,
                     updates_per_delta: int = 0, update_scale: float = 0.05,
                     seed: int = 0) -> list[GraphDelta]:
    """A deterministic delta trace promoting inductive nodes into the base.

    Each delta appends ``nodes_per_delta`` nodes of ``batch`` (with their
    recorded incremental edges into the base graph and intra edges among
    the delta's own nodes), then layers structural churn on the existing
    graph: ``edges_per_delta`` random unit-weight edges,
    ``removals_per_delta`` deletions of existing edges, and
    ``updates_per_delta`` feature-row perturbations.  The trace is a pure
    function of its arguments — replaying it against the same base graph
    reproduces the same evolution bit for bit.
    """
    if num_deltas <= 0 or nodes_per_delta <= 0:
        raise GraphError("num_deltas and nodes_per_delta must be positive")
    needed = num_deltas * nodes_per_delta
    if needed > batch.num_nodes:
        raise GraphError(
            f"trace needs {needed} inductive nodes but the batch holds "
            f"{batch.num_nodes}")
    if batch.incremental.shape[1] != base.num_nodes:
        raise GraphError(
            f"batch incremental width {batch.incremental.shape[1]} != "
            f"base nodes {base.num_nodes}")
    rng = np.random.default_rng(seed)
    sim = StreamingGraph(base.copy())
    labeled = base.labels is not None
    deltas: list[GraphDelta] = []
    cursor = 0
    for _ in range(num_deltas):
        old_n = sim.num_nodes
        sel = np.arange(cursor, cursor + nodes_per_delta)
        cursor += nodes_per_delta
        inc = batch.incremental[sel].tocoo()
        intra = sp.triu(batch.intra[sel][:, sel], k=1).tocoo()
        rows = [np.column_stack([inc.row + old_n, inc.col])]
        vals = [inc.data]
        if intra.nnz:
            rows.append(np.column_stack([intra.row + old_n,
                                         intra.col + old_n]))
            vals.append(intra.data)
        adj = sim.graph.adjacency
        remove_edges = None
        if removals_per_delta:
            # strictly-upper entries in row-major order, straight from CSR
            row_of = np.repeat(np.arange(old_n), np.diff(adj.indptr))
            upper = np.flatnonzero(adj.indices > row_of)
            if upper.size:
                take = min(removals_per_delta, upper.size)
                picks = upper[rng.choice(upper.size, size=take,
                                         replace=False)]
                remove_edges = np.column_stack(
                    [row_of[picks], adj.indices[picks]])
        if edges_per_delta:
            endpoints = rng.integers(0, old_n, size=(edges_per_delta, 2))
            endpoints = endpoints[endpoints[:, 0] != endpoints[:, 1]]
            if remove_edges is not None and endpoints.size:
                lo = np.minimum(endpoints[:, 0], endpoints[:, 1])
                hi = np.maximum(endpoints[:, 0], endpoints[:, 1])
                removed_keys = (remove_edges[:, 0] * old_n
                                + remove_edges[:, 1])
                endpoints = endpoints[~np.isin(lo * old_n + hi, removed_keys)]
            if endpoints.size:
                rows.append(endpoints)
                vals.append(np.ones(endpoints.shape[0], dtype=np.float64))
        update_index = update_features = None
        if updates_per_delta:
            update_index = np.sort(rng.choice(
                old_n, size=min(updates_per_delta, old_n), replace=False))
            drift = rng.standard_normal(
                (update_index.size, base.feature_dim)) * update_scale
            update_features = sim.graph.features[update_index] + drift
        delta = GraphDelta(
            add_features=batch.features[sel],
            add_labels=batch.labels[sel] if labeled else None,
            add_edges=np.vstack(rows),
            add_weights=np.concatenate(vals),
            remove_edges=remove_edges,
            update_index=update_index,
            update_features=update_features)
        sim.apply(delta)
        deltas.append(delta)
    return deltas
