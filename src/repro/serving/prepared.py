"""Prepared-deployment cache: everything invariant across serving requests.

:class:`PreparedDeployment` is built once per deployed graph (typically
from a :class:`repro.api.DeploymentBundle`) and precomputes what the naive
serving path re-derives on every batch:

- the deployed base block with self-loops already applied, in canonical
  CSR form, plus its per-row entry counts — so rows of the augmented
  operator of Eq. (3)/Eq. (11) are assembled by linear-time numpy
  scatters instead of a COO round-trip (``sp.bmat`` sorts);
- the base features cast to contiguous float64;
- the sparse mapping ``M`` (synthetic deployment) and its storage bytes;
- lazily, the standalone normalized operator of the deployed graph, its
  K-hop propagated features and base logits (``warm_base``) — the cache
  behind answering queries about *known* nodes with zero graph work and
  behind the frozen-base fast path.  A streaming delta
  (:meth:`PreparedDeployment.apply_delta`) updates only what exact
  serving reads; it drops these caches for their next read to rebuild.

A synthetic deployment serving SGC answers through the *frozen*
operator (below), so a reply depends on its own request alone; every
other deployment answers through the exact Eq. 3 / Eq. 11 operator
(:meth:`PreparedDeployment.serve_batch_exact`), which the training
validator and the paper grid also reach on a synthetic deployment
through :meth:`repro.inference.engine.InductiveServer.run`.

Exactness contract
------------------
Replies from the exact operator are bit for bit what the naive path
produces: with

    op = symmetric_normalize(bmat([[base, inc.T], [inc, ea]]))

that is ``model(op, X')[B:]``, and for SGC ``model.head(model.embed(op,
X')[B:])`` (fact 4).  ``attach_normalize`` reproduces ``op`` in full; the SGC
exact path (``serve_batch_exact`` and ``embed_batch`` on a linear-propagation
model) never materialises it and builds only the rows a request can
reach.  Both rest on the same facts about scipy and BLAS, deliberately
mirrored here:

1. ``csr.sum(axis=1)`` is ``np.add.reduceat`` over each row's stored data
   (pairwise summation), *not* a sequential fold — so a row's degree is a
   ``reduceat`` over its merged ``[base_loops row | incᵀ entries]``
   segment, which must be assembled first.  A segment's sum depends on
   its contents alone, and a base row no request node links to has no
   ``incᵀ`` entries: its merged segment is byte-identical to its
   standalone one, so its degree and ``D^{-1/2}`` are the cached
   standalone bits.  Only the touched rows ``T = unique(inc.indices)``
   and the ``n`` new rows are re-summed.
2. The normalization ``scale @ A @ scale`` multiplies every stored entry
   as ``(d_i^{-1/2} * a_ij) * d_j^{-1/2}``, which an elementwise scale of
   the merged data array reproduces exactly — with the standalone scale
   vector patched at ``T`` as column factors.
3. scipy's CSR product folds every output row sequentially over that
   row's stored entries, independently of every other row.  A product
   restricted to a row subset is therefore row-exact, and relabelling
   its columns monotonically onto a gathered operand does not reorder a
   row.  SGC needs ``(Â'^K X')[B:]``, so the row sets follow top-down —
   ``S_K`` the new rows, ``S_{k-1} = S_k ∪ cols(Â'[S_k])`` — and hop
   ``k`` multiplies rows ``S_k`` by the gathered ``H_{k-1}[S_{k-1}]``:
   O(receptive field · d) instead of O(‖A‖ · d) per request.
4. A BLAS gemm row depends on its own operand row and on the operand's
   *shape* (blocking and edge kernels follow the row count), never on
   other rows' values: ``(H W)[B:] != H[B:] W`` in general.  The
   classifier is row-wise, so the naive path and ``predict`` both apply
   ``model.head`` to the ``n`` hop-K rows alone: the same call on the
   same ``(n, d)`` operand, hence the same bits whatever the BLAS
   blocking.  Against a full-shape ``model(op, X')[B:]`` the two agree
   within the declared relative bound of ``docs/precision.md``.
   ``embed`` / ``link_score`` / ``topk`` return the hop-K rows without
   the head.

Models with dense layers between propagations (GCN, GraphSAGE, APPNP,
Cheby, MLP) run row-count-sensitive gemms over all ``B+n`` rows at every
layer, so they keep the full assembly.  The parity tests assert every
path against the naive one.

Every path computes in float64.  Numeric precision is a property of the
saved artifact only (``DeploymentBundle.save(precision=...)``), and
``DeploymentBundle.load`` widens narrowed members back to float64
before anything here sees them.

Frozen path
-----------
The base rows keep their standalone ``D'^{-1/2}`` and propagate on their
own, so the cached hops ``H_k = Â'^k X'`` stand in for them; only the
``n`` new rows are computed, ``h_k = Â_nb H_{k-1} + Â_nn h_{k-1}``.
``Â_nb = (d_new^{-1/2} · aM) · d'^{-1/2}`` is one scaled ``(n, B)`` CSR
per request, ``d_new`` sums a new row's ``aM`` and ``ea + I`` entries,
and without intra edges the self-loop is the row scale ``d_new^{-1/2} ·
d_new^{-1/2}``.  By facts 1 and 3 this is bitwise what plain scipy
products give — the uncached ``InductiveServer`` reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError, InferenceError, ServingError
from repro.condense.base import CondensedGraph
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.incremental import convert_connections
from repro.graph.ops import (_inv_sqrt, _sorted_unique, add_self_loops,
                             canonical_csr)
from repro.graph.stream import (
    GraphDelta,
    StreamingGraph,
    _splice_rows,
    csr_row_positions,
)
from repro.inference.engine import serves_frozen, validate_deployment
from repro.nn.models import GNNModel, SGC
from repro.telemetry import stage_span
from repro.tensor.sparse import sparse_memory_bytes
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["PreparedDeployment", "DeltaRefreshReport"]


@dataclass(frozen=True)
class DeltaRefreshReport:
    """What one :meth:`PreparedDeployment.apply_delta` call did.

    ``mode`` is ``"incremental"`` (touched rows respliced, degrees
    patched row-wise), ``"rebuild"`` (the same work, but the rows whose
    operator content changed exceed the staleness threshold),
    ``"append-mapping"`` (synthetic deployment: mapping grew zero rows),
    or ``"noop"``.  ``refreshed`` names what the call itself brought up
    to date; ``invalidated`` names the held caches it dropped, which
    are recomputed in full on their next read: the normalized operator,
    the K-hop propagated features, and the warm base logits and base
    embeddings / top-k index (full model forwards — never patched in
    place because BLAS row-subset products are not bitwise
    reproducible).
    """

    mode: str
    seconds: float
    num_base: int
    appended: int
    touched_rows: int
    affected_rows: int
    refreshed: tuple[str, ...] = ()
    invalidated: tuple[str, ...] = ()


def _reduceat_row_sums(data: np.ndarray, indptr: np.ndarray,
                       counts: np.ndarray) -> np.ndarray:
    """Row sums exactly as ``scipy.sparse.csr_matrix.sum(axis=1)``.

    scipy's ``_minor_reduce`` runs ``np.add.reduceat`` at the start offset
    of every non-empty row; empty rows stay zero.  Pairwise summation makes
    this differ (in the last ulp) from a sequential fold, so the benchmark
    and the naive path must share this exact implementation.
    """
    out = np.zeros(counts.shape[0], dtype=np.float64)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return out


def _index_dtype(largest: int) -> type:
    """int32 when every index value fits, as scipy would choose: a CSR
    built from int32 arrays is taken as it is, while int64 ones are
    rescanned and downcast on every construction."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _ranks(ids: np.ndarray, size: int) -> np.ndarray:
    """Table mapping each member of the sorted id set ``ids`` to its rank;
    slots of non-members are uninitialised and must not be read."""
    dtype = _index_dtype(size)
    table = np.empty(size, dtype=dtype)
    table[ids] = np.arange(ids.size, dtype=dtype)
    return table


def _intra_loops(intra, n: int) -> tuple[sp.csr_matrix, int]:
    """``ea + I`` in canonical CSR, and the stored-entry count of ``ea``
    itself (explicit zeros included — the naive attach keeps them)."""
    if intra is not None:
        ea_raw = canonical_csr(intra, (n, n), name="intra adjacency")
        if ea_raw.nnz:
            ea_loops = add_self_loops(ea_raw)
            ea_loops.sort_indices()
            return ea_loops, int(ea_raw.nnz)
    # no intra edges (all of node mode): the identity add_self_loops would
    # return, without its five scipy round trips
    eye = sp.csr_matrix((np.ones(n, dtype=np.float64),
                         np.arange(n, dtype=np.int32),
                         np.arange(n + 1, dtype=np.int32)), shape=(n, n))
    return eye, 0


def _csr_storage_bytes(nnz: int, rows: int, cols: int) -> int:
    """Storage of a float64 CSR matrix as scipy would build it (int32
    indices when they fit, which mirrors ``sp.bmat``'s index-dtype
    choice)."""
    index_bytes = 4 if max(nnz, rows, cols) < np.iinfo(np.int32).max else 8
    return nnz * (8 + index_bytes) + (rows + 1) * index_bytes


def _fused_scale(block: sp.csr_matrix, inv_row: np.ndarray,
                 inv_col: np.ndarray) -> np.ndarray:
    """Single-pass ``D^-1/2`` row/col scaling of one CSR block's data.

    One traversal of the block's ``indptr``/``indices``/``data``: every
    stored entry ``a_ij`` becomes ``(inv_row[i] * a_ij) * inv_col[j]``,
    written into a fresh scratch buffer — the block's index structure is
    never copied.  The multiply order matches the exactness contract, so
    a downstream SpMV over this buffer is bitwise identical to one over
    a materialized scaled copy.  Zero entries of ``inv_row``/``inv_col``
    (zero-degree masking) propagate exact zeros.
    """
    return ((np.repeat(inv_row, np.diff(block.indptr)) * block.data)
            * inv_col[block.indices])


class PreparedDeployment:
    """Request-invariant serving state for one deployed graph.

    Parameters mirror :class:`repro.inference.engine.InductiveServer`:
    a trained model, a ``deployment`` kind, and the graph it serves on.
    """

    def __init__(self, model: GNNModel, deployment: str, base: Graph | None,
                 condensed: CondensedGraph | None = None) -> None:
        validate_deployment(deployment, base, condensed)
        self.model = model
        self.deployment = deployment
        self.base = base
        self.condensed = condensed
        if deployment == "synthetic":
            raw = condensed.sparse_adjacency()
            raw_features = condensed.features
            self.mapping: sp.csr_matrix | None = condensed.mapping
        else:
            raw = base.adjacency
            raw_features = base.features
            self.mapping = None

        # --- request-invariant precomputation -------------------------
        raw = canonical_csr(raw)
        self._raw_nnz = int(raw.nnz)  # the naive attach keeps explicit zeros
        self.base_loops = add_self_loops(raw)
        self.base_loops.sort_indices()
        self.num_base = int(self.base_loops.shape[0])
        self._base_counts = np.diff(self.base_loops.indptr)
        self.base_features = np.ascontiguousarray(raw_features,
                                                  dtype=np.float64)
        if self.base_features.shape[0] != self.num_base:
            raise GraphError(
                f"base features rows ({self.base_features.shape[0]}) != "
                f"base nodes ({self.num_base})")
        self._mapping_bytes = (sparse_memory_bytes(self.mapping)
                               if self.mapping is not None else 0)
        self.feature_dim = int(self.base_features.shape[1])
        # warm-base caches, built on first use (they cost one standalone
        # forward and are only needed by warm lookups / the frozen path)
        self._loop_degrees: np.ndarray | None = None
        self._loop_inv_sqrt: np.ndarray | None = None
        self._base_operator: sp.csr_matrix | None = None
        self._propagated: list[np.ndarray] | None = None
        self._base_logits: np.ndarray | None = None
        self._base_embeddings: np.ndarray | None = None
        # the top-k similarity index over the base embeddings, built
        # lazily; dropped whenever a delta changes the base graph
        self._embedding_index = None
        # the evolving view of the deployed graph, created on first delta
        self._stream: StreamingGraph | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle) -> "PreparedDeployment":
        """Prepare a persisted :class:`repro.api.DeploymentBundle`."""
        return cls(bundle.model(), bundle.deployment, bundle.base,
                   bundle.condensed)

    # ------------------------------------------------------------------
    # Exact cached attach + normalize
    # ------------------------------------------------------------------
    def attach_normalize(self, incremental, new_features: np.ndarray,
                         intra=None) -> tuple[sp.csr_matrix, np.ndarray, int]:
        """``(operator, features, memory_bytes)`` for one batch.

        ``incremental`` is the raw ``(n, N)`` adjacency into the *original*
        graph; for synthetic deployments it is converted through the
        mapping (Eq. 11) first.  The operator and stacked features are
        bit-for-bit equal to normalizing the naive ``bmat`` assembly.
        ``memory_bytes`` mirrors the naive serving-footprint accounting.
        """
        new_feats = self._request_features(new_features)
        n = new_feats.shape[0]
        inc, inc_nnz_raw = self._converted_incremental(incremental, n)
        ea_loops, ea_nnz_raw = _intra_loops(intra, n)
        data, indices, indptr = self._assemble_normalized(inc, ea_loops)
        total = self.num_base + n
        operator = sp.csr_matrix((data, indices, indptr),
                                 shape=(total, total))
        operator.has_sorted_indices = True
        features = np.vstack([self.base_features, new_feats])
        memory = self._memory_bytes(n, inc_nnz_raw, ea_nnz_raw, total)
        return operator, features, memory

    def _request_features(self, new_features) -> np.ndarray:
        new_feats = np.asarray(new_features, dtype=np.float64)
        if new_feats.ndim != 2 or new_feats.shape[1] != self.feature_dim:
            raise GraphError(
                f"feature dims differ: base {self.feature_dim} vs new "
                f"{new_feats.shape[1] if new_feats.ndim == 2 else new_feats.shape}")
        return new_feats

    def _converted_incremental(self, incremental,
                               n: int) -> tuple[sp.csr_matrix, int]:
        """The ``(n, B)`` incremental block in canonical, zero-free CSR and
        its stored-entry count *before* explicit zeros were dropped (the
        naive path eliminates after assembly, so its footprint counts
        them).  A canonical block is used as it is; explicit zeros are
        dropped in a copy, never in the caller's arrays."""
        columns = self.num_base if self.mapping is None else int(
            self.mapping.shape[0])
        inc = canonical_csr(incremental, (n, columns),
                            name="incremental adjacency")
        if self.mapping is not None:
            inc = convert_connections(inc, self.mapping)
            inc.sort_indices()
        raw_nnz = int(inc.nnz)
        if not inc.data.all():
            inc = inc.copy() if inc is incremental else inc
            inc.eliminate_zeros()
        return inc, raw_nnz

    def _assemble_normalized(
            self, inc: sp.csr_matrix, ea_loops: sp.csr_matrix,
            base_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized rows ``base_rows ∪ new`` of the attached operator as
        a ``(data, indices, indptr)`` triple with *global* column ids.

        ``base_rows`` is a sorted set of base rows holding every column
        ``inc`` stores; ``None`` means all of them — the full operator.
        The four blocks are merged row-wise by linear-time scatters (no
        COO sort) in the canonical column-sorted layout of the naive
        assembly: ``[base_loops row | incᵀ entries]`` for a base row,
        ``[inc row | ea + I]`` for a new one.  Degrees of the assembled
        rows come from ``reduceat`` over their merged data; every other
        row's stored segment is byte-identical to its standalone one, so
        its column factor is the cached standalone ``D^{-1/2}`` bit for
        bit.
        """
        loops = self.base_loops
        B, n = self.num_base, inc.shape[0]
        if base_rows is None:
            base_data, base_cols = loops.data, loops.indices
            counts_bb, slots, kept = self._base_counts, inc.indices, B
        else:
            position = csr_row_positions(loops.indptr, base_rows)
            base_data, base_cols = loops.data[position], loops.indices[position]
            counts_bb = self._base_counts[base_rows]
            slots, kept = _ranks(base_rows, B)[inc.indices], base_rows.size
        # incᵀ without a scipy transpose: inc's entries stably sorted by
        # column are its transpose's rows in stored (column-sorted) order
        order = np.argsort(inc.indices, kind="stable")
        counts_nb = np.diff(inc.indptr)
        counts_bn = np.bincount(slots, minlength=kept)
        counts_nn = np.diff(ea_loops.indptr)
        row_counts = np.concatenate([counts_bb + counts_bn,
                                     counts_nb + counts_nn])
        indptr = np.zeros(kept + n + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)

        def scatter(values, cols, counts, row_start: int, lead) -> None:
            if values.size == 0:
                return
            shift = (indptr[row_start:row_start + counts.size] + lead
                     - (np.cumsum(counts) - counts))
            dest = np.arange(values.size, dtype=np.int64) + np.repeat(shift,
                                                                      counts)
            indices[dest] = cols
            data[dest] = values

        scatter(base_data, base_cols, counts_bb, 0, 0)
        scatter(inc.data[order], np.repeat(np.arange(B, B + n), counts_nb)[order],
                counts_bn, 0, counts_bb)
        scatter(inc.data, inc.indices, counts_nb, kept, 0)
        scatter(ea_loops.data, ea_loops.indices + B, counts_nn, kept, counts_nb)

        inv_rows = _inv_sqrt(_reduceat_row_sums(data, indptr[:-1], row_counts))
        if base_rows is None:
            inv_cols = inv_rows
        else:
            inv_cols = np.concatenate([self._inv_sqrt_degrees(),
                                       inv_rows[kept:]])
            inv_cols[base_rows] = inv_rows[:kept]
        data = (np.repeat(inv_rows, row_counts) * data) * inv_cols[indices]
        return data, indices, indptr

    def _memory_bytes(self, n: int, inc_nnz: int, ea_nnz: int,
                      feature_rows: int) -> int:
        """Serving footprint, matching the naive accounting bit for bit."""
        attached_nnz = self._raw_nnz + 2 * inc_nnz + ea_nnz
        total = self.num_base + n
        memory = _csr_storage_bytes(attached_nnz, total, total)
        memory += feature_rows * self.feature_dim * 8
        return memory + self._mapping_bytes

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _enter_request(self, batch: IncrementalBatch, batch_mode: str):
        """Validate the mode, put the model in eval, and return the intra
        block the mode keeps — the preamble every serve path shares."""
        if batch_mode not in ("graph", "node"):
            raise InferenceError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        self.model.eval()
        return batch.intra if batch_mode == "graph" else None

    def serve_batch(self, batch: IncrementalBatch,
                    batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Serve one batch; returns ``(logits, seconds, memory_bytes)``.

        The operator is the frozen one on a synthetic SGC deployment, else
        the exact one.  Same contract — and bitwise the same logits — as
        :meth:`repro.inference.engine.InductiveServer.serve_batch`.
        """
        return self._serve(batch, batch_mode,
                           serves_frozen(self.model, self.deployment))

    def serve_batch_exact(self, batch: IncrementalBatch,
                          batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Serve one batch through the exact Eq. 3 / Eq. 11 operator, which
        re-normalizes the base rows the request touches."""
        return self._serve(batch, batch_mode, frozen=False)

    def serve_batch_frozen(self, batch: IncrementalBatch,
                           batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Serve one batch through the frozen operator (SGC only): arriving
        nodes read the base graph but do not perturb it.  What
        :meth:`serve_batch` serves on a synthetic deployment; on an
        original one, the grid's ``operator="frozen"`` approximation."""
        return self._serve(batch, batch_mode, frozen=True)

    def embed_batch(self, batch: IncrementalBatch,
                    batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Penultimate representations of the batch's inductive nodes.

        Runs the models' ``embed()`` contract through the operator
        :meth:`serve_batch` serves — only the final classifier layer is
        skipped.  Under ``eval()`` dropout is the identity, so embeddings
        are deterministic.  Returns ``(embeddings, seconds, memory_bytes)``.
        """
        return self._serve(batch, batch_mode,
                           serves_frozen(self.model, self.deployment),
                           classify=False)

    def _serve(self, batch: IncrementalBatch, batch_mode: str, frozen: bool,
               classify: bool = True) -> tuple[np.ndarray, float, int]:
        """One batch through the frozen or the exact operator; without
        ``classify``, the penultimate rows."""
        intra = self._enter_request(batch, batch_mode)
        start = time.perf_counter()
        if frozen:
            hidden, memory = self._frozen_hidden(batch, intra)
        elif isinstance(self.model, SGC) and self.model.k_hops:
            # Â^K X, then one classifier: only the receptive field's rows
            hidden, memory = self._receptive_hidden(batch, intra,
                                                    self.model.k_hops)
        else:
            # dense layers see all B+n rows: the fully assembled graph
            with stage_span("operator"):
                operator, features, memory = self.attach_normalize(
                    batch.incremental, batch.features, intra)
            with stage_span("forward" if classify else "embed"), no_grad():
                out = (self.model if classify else self.model.embed)(
                    operator, Tensor(features))
            # a copy, so the reply does not pin the (B+n, ·) output
            return (out.data[self.num_base:].copy(),
                    time.perf_counter() - start, memory)
        if classify:
            # the sub-spans only reach a trace when the caller installed
            # one (use_trace); otherwise stage_span is a contextvar-read
            # no-op
            with stage_span("forward"), no_grad():
                hidden = self.model.head(Tensor(hidden)).data
        return hidden, time.perf_counter() - start, memory

    def _receptive_hidden(self, batch: IncrementalBatch, intra,
                          hops: int) -> tuple[np.ndarray, int]:
        """``(Â'^K X')[B:]`` for ``K = hops >= 1`` from the operator rows
        the request can reach, bit for bit equal to the full propagation
        (see the exactness contract), plus the serving footprint."""
        loops = self.base_loops
        B = self.num_base
        with stage_span("operator"):
            new_feats = self._request_features(batch.features)
            n = new_feats.shape[0]
            inc, inc_nnz_raw = self._converted_incremental(batch.incremental, n)
            ea_loops, ea_nnz_raw = _intra_loops(intra, n)
            # row sets top-down — base[k] is the base part of S_k, every S_k
            # also holds the n new rows: S_K has no base rows, S_{K-1} the
            # touched ones, S_{k-1} = S_k ∪ cols(Â'[S_k]) (self-loops make
            # it a union)
            base = [_sorted_unique(inc.indices, B), np.empty(0, dtype=np.int64)]
            for _ in range(hops - 1):
                base.insert(0, _sorted_unique(loops.indices[
                    csr_row_positions(loops.indptr, base[0])], B))
            new_ids = np.arange(B, B + n)
            levels = [np.concatenate([rows, new_ids]) for rows in base]
            # rows S_1 feed the products; at K = 1 those are the new rows
            # alone, but the touched rows' merged degrees are still needed
            data, indices, indptr = self._assemble_normalized(
                inc, ea_loops, base[min(hops - 1, 1)])
        with stage_span("propagate"):
            gathered = base[0].size
            hidden = np.empty((gathered + n, self.feature_dim),
                              dtype=np.float64)
            # mode="clip" writes straight into ``out`` (ids are in range)
            np.take(self.base_features, base[0], axis=0,
                    out=hidden[:gathered], mode="clip")
            hidden[gathered:] = new_feats
            indptr = indptr.astype(_index_dtype(indptr[-1]), copy=False)
            for k in range(1, hops + 1):
                ranks = _ranks(levels[k - 1], B + n)
                held = indptr.size - 1
                if k == hops and n < held:
                    # S_K is the new rows, the trailing n of S_{K-1}
                    start = indptr[held - n]
                    indptr = indptr[held - n:] - start
                    data, indices = data[start:], indices[start:]
                elif levels[k].size < held:
                    # the rows held are S_{k-1}; keep those in S_k
                    rows = ranks[levels[k]]
                    position = csr_row_positions(indptr, rows)
                    counts = indptr[rows + 1] - indptr[rows]
                    indptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
                    np.cumsum(counts, out=indptr[1:])
                    data, indices = data[position], indices[position]
                # relabelling columns monotonically keeps each row's
                # stored order, hence scipy's sequential per-row fold
                operator = sp.csr_matrix(
                    (data, ranks[indices], indptr),
                    shape=(levels[k].size, levels[k - 1].size))
                hidden = operator @ hidden
        memory = self._memory_bytes(n, inc_nnz_raw, ea_nnz_raw, B + n)
        return hidden, memory

    def serve_task(self, task, *, batch_mode: str = "graph"):
        """Execute one :class:`~repro.serving.embeddings.ServeTask`.

        Dispatches through the :data:`repro.serving.embeddings.TASKS`
        table;
        ``task="predict"`` lands on the very same :meth:`serve_batch`
        call as the keyword API, so its replies stay bitwise identical.
        Returns the executor's ``(result, seconds, memory_bytes)`` triple.
        """
        from repro.serving.embeddings import execute_task
        return execute_task(self, task, batch_mode=batch_mode)

    # ------------------------------------------------------------------
    # Warm base cache (standalone graph, no inductive nodes)
    # ------------------------------------------------------------------
    def _degrees(self) -> np.ndarray:
        """Row sums of ``base_loops`` — scipy's ``sum(axis=1)`` bit for bit
        (``reduceat`` pairwise summation), cached for incremental refresh."""
        if self._loop_degrees is None:
            self._loop_degrees = _reduceat_row_sums(
                self.base_loops.data, self.base_loops.indptr[:-1],
                self._base_counts)
        return self._loop_degrees

    def _inv_sqrt_degrees(self) -> np.ndarray:
        """Float64 ``D^{-1/2}`` of the standalone base graph, cached: the
        column factor of every operator row a request does not touch."""
        if self._loop_inv_sqrt is None:
            self._loop_inv_sqrt = _inv_sqrt(self._degrees())
        return self._loop_inv_sqrt

    def _scaled_operator(self, inv_sqrt: np.ndarray) -> sp.csr_matrix:
        """``D^{-1/2} (A+I) D^{-1/2}`` by elementwise scaling.

        Shares ``base_loops``' index structure (no sparse matmuls) and is
        bitwise identical to ``symmetric_normalize(base_loops,
        self_loops=False)``: the diagonal products multiply in the same
        ``(d_i^{-1/2} * a_ij) * d_j^{-1/2}`` order and preserve the
        canonical stored layout (asserted by the parity tests).
        """
        loops = self.base_loops
        rows = np.repeat(np.arange(self.num_base, dtype=np.int64),
                         self._base_counts)
        data = (inv_sqrt[rows] * loops.data) * inv_sqrt[loops.indices]
        operator = sp.csr_matrix((data, loops.indices, loops.indptr),
                                 shape=loops.shape)
        operator.has_sorted_indices = True
        return operator

    def base_operator(self) -> sp.csr_matrix:
        """Standalone normalized operator of the deployed graph, cached
        until the next delta drops it."""
        if self._base_operator is None:
            self._base_operator = self._scaled_operator(
                self._inv_sqrt_degrees())
        return self._base_operator

    def warm_base(self) -> np.ndarray:
        """Logits of the deployed (known) nodes, computed once and cached.

        This is the zero-graph-work answer for requests about nodes the
        deployment already contains.
        """
        if self._base_logits is None:
            self.model.eval()
            with no_grad():
                out = self.model(self.base_operator(),
                                 Tensor(self.base_features))
            self._base_logits = out.data
        return self._base_logits

    def base_embeddings(self) -> np.ndarray:
        """Embeddings of the deployed (known) nodes, computed once.

        The link-prediction scorer reads its base endpoints here.  One
        standalone ``embed()`` forward is cached, exactly like
        :meth:`warm_base` caches the base logits.
        """
        if self._base_embeddings is None:
            self.model.eval()
            with no_grad():
                out = self.model.embed(self.base_operator(),
                                       Tensor(self.base_features))
            self._base_embeddings = out.data
        return self._base_embeddings

    def embedding_index(self):
        """The top-k similarity index over the base embeddings.

        Built lazily from :meth:`base_embeddings`.  :meth:`apply_delta`
        drops it, so top-k replies never cite a pre-delta matrix.
        """
        if self._embedding_index is None:
            from repro.serving.embeddings import EmbeddingIndex
            self._embedding_index = EmbeddingIndex(self.base_embeddings())
        return self._embedding_index

    def invalidate_embeddings(self) -> None:
        """Drop the cached base embeddings and top-k index.

        Both are rebuilt lazily on the next ``embed``-family request.
        :meth:`apply_delta` calls this whenever the base graph changes;
        the embed benchmark calls it directly to measure what a serving
        path without the precomputed index would pay per query.
        """
        self._base_embeddings = None
        self._embedding_index = None

    def propagated_base_features(self) -> list[np.ndarray]:
        """``[X, ÂX, Â²X, ...]`` under the *standalone* normalization.

        Only defined for SGC-style linear propagation; this feeds the
        frozen-base fast path where per-request work touches nothing but
        the incremental rows.  Cached until the next delta drops it.
        """
        if not isinstance(self.model, SGC):
            raise ServingError(
                "propagated-feature caching needs linear propagation (SGC); "
                f"got {type(self.model).__name__}")
        if self._propagated is None:
            operator = self.base_operator()
            hops = [self.base_features]
            for _ in range(self.model.k_hops):
                hops.append(np.asarray(operator @ hops[-1]))
            self._propagated = hops
        return self._propagated

    def _frozen_hidden(self, batch: IncrementalBatch,
                       intra) -> tuple[np.ndarray, int]:
        """``h_K`` of the frozen operator for the ``n`` new rows, plus the
        serving footprint (the module docstring's "Frozen path")."""
        hops = self.propagated_base_features()  # validates the model
        with stage_span("operator"):
            new_feats = self._request_features(batch.features)
            n = new_feats.shape[0]
            inc, inc_nnz_raw = self._converted_incremental(batch.incremental, n)
            ea_loops, ea_nnz_raw = (_intra_loops(intra, n)
                                    if intra is not None else (None, 0))
            # degrees of the new rows only; base rows keep standalone scaling
            degree = _reduceat_row_sums(inc.data, inc.indptr[:-1],
                                        np.diff(inc.indptr))
            if ea_nnz_raw:
                inv_new = _inv_sqrt(degree + _reduceat_row_sums(
                    ea_loops.data, ea_loops.indptr[:-1],
                    np.diff(ea_loops.indptr)))
                op_nn = sp.csr_matrix(
                    (_fused_scale(ea_loops, inv_new, inv_new),
                     ea_loops.indices, ea_loops.indptr), shape=(n, n))
            else:
                # ea + I is the identity, never built: a row's one entry
                # adds 1.0 to its degree and scales to (d^{-1/2} * 1) *
                # d^{-1/2}, a row scale of the same bits
                inv_new = _inv_sqrt(degree + 1.0)
                loop_scale = (inv_new * inv_new)[:, None]
            op_nb = sp.csr_matrix(
                (_fused_scale(inc, inv_new, self._inv_sqrt_degrees()),
                 inc.indices, inc.indptr), shape=inc.shape)
        with stage_span("propagate"):
            h = new_feats
            for k in range(self.model.k_hops):
                h = op_nb @ hops[k] + (op_nn @ h if ea_nnz_raw
                                       else loop_scale * h)
        memory = self._memory_bytes(n, inc_nnz_raw, ea_nnz_raw,
                                    self.num_base + n)
        return h, memory

    # ------------------------------------------------------------------
    # Streaming evolution (incremental cache refresh)
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta, *,
                    staleness_threshold: float = 0.25) -> DeltaRefreshReport:
        """Evolve the deployed base graph by one :class:`GraphDelta`.

        The delta pays only for what the exact serve path reads: the base
        block (``base_loops``, row counts, features) is updated by row
        splicing, and the degree vector and its ``D^{-1/2}`` are patched
        at the touched rows.  The derived warm caches are dropped and
        recomputed in full by their next read: the standalone normalized
        operator by :meth:`base_operator`, the K-hop propagated features
        by :meth:`propagated_base_features`.  The report's mode is
        ``"rebuild"`` when the affected row fraction exceeds
        ``staleness_threshold`` and ``"incremental"`` otherwise; the work
        is the same.  Every cache, once read, is bit-for-bit what a
        from-scratch ``PreparedDeployment`` on the post-delta graph would
        hold (the parity suite asserts this), so served logits are
        bitwise unchanged by the delta path.

        Synthetic deployments serve through the mapping matrix and never
        hold the original graph; for them only node appends are
        streamable (the mapping gains zero rows, so requests may cite
        the new original-node ids) — edge or feature changes require
        recondensation and raise :class:`~repro.errors.ServingError`.
        """
        if not isinstance(delta, GraphDelta):
            raise ServingError(
                f"apply_delta needs a GraphDelta, got {type(delta).__name__}")
        if not 0.0 <= staleness_threshold <= 1.0:
            raise ServingError(
                f"staleness_threshold must be in [0, 1], "
                f"got {staleness_threshold}")
        start = time.perf_counter()
        if delta.is_noop():
            return DeltaRefreshReport(
                mode="noop", seconds=time.perf_counter() - start,
                num_base=self.num_base, appended=0, touched_rows=0,
                affected_rows=0)
        if self.deployment == "synthetic":
            return self._apply_delta_synthetic(delta, start)

        if self._stream is None:
            self._stream = StreamingGraph(self.base)
        effect = self._stream.apply(delta)
        old_base = self.num_base
        self.base = effect.graph
        new_n = effect.num_nodes
        touched = effect.touched_rows

        # --- base block: row splice (always incremental) --------------
        loops_rows = self._loops_rows(effect)
        self.base_loops = _splice_rows(self.base_loops,
                                       touched[touched < old_base],
                                       *loops_rows, new_n)
        self.num_base = new_n
        self._base_counts = np.diff(self.base_loops.indptr)
        self._raw_nnz = int(effect.graph.adjacency.nnz)
        self.base_features = np.ascontiguousarray(effect.graph.features)

        # --- derived caches: dropped, or caught up on their next read --
        invalidated: list[str] = []
        if self._base_logits is not None:
            self._base_logits = None
            invalidated.append("warm_logits")
        if self._base_embeddings is not None:
            # the top-k index is built from these embeddings and must
            # never outlive the graph it indexed; like the warm logits,
            # both are recomputed lazily
            # (never patched row-wise — BLAS row-subset products are not
            # bitwise reproducible)
            self.invalidate_embeddings()
            invalidated.append("embeddings")
        if self._base_operator is not None:
            self._base_operator = None
            invalidated.append("operator")
        if self._propagated is not None:
            self._propagated = None
            invalidated.append("propagated")
        affected_rows = int(self._affected_operator_rows(touched).size)
        mode = ("rebuild" if affected_rows > staleness_threshold * new_n
                else "incremental")
        refreshed = ()
        if self._loop_degrees is not None:
            self._patch_degrees(touched, old_base, loops_rows)
            refreshed = ("degrees",)
        return DeltaRefreshReport(
            mode=mode, seconds=time.perf_counter() - start, num_base=new_n,
            appended=effect.appended, touched_rows=int(touched.size),
            affected_rows=affected_rows, refreshed=refreshed,
            invalidated=tuple(invalidated))

    def _apply_delta_synthetic(self, delta: GraphDelta,
                               start: float) -> DeltaRefreshReport:
        if (delta.add_edges.size or delta.remove_edges.size
                or delta.update_index is not None):
            raise ServingError(
                "a synthetic deployment serves through its mapping; "
                "streaming deltas may only append original-graph nodes "
                "(edge or feature changes to the original graph require "
                "recondensation)")
        m = delta.num_new_nodes
        if delta.add_features.shape[1] != self.feature_dim:
            raise GraphError(
                f"appended feature dim {delta.add_features.shape[1]} != "
                f"deployment feature dim {self.feature_dim}")
        self.mapping = sp.vstack(
            [self.mapping,
             sp.csr_matrix((m, self.mapping.shape[1]), dtype=np.float64)],
            format="csr")
        self._mapping_bytes = sparse_memory_bytes(self.mapping)
        return DeltaRefreshReport(
            mode="append-mapping", seconds=time.perf_counter() - start,
            num_base=self.num_base, appended=m, touched_rows=0,
            affected_rows=0, refreshed=("mapping",))

    @staticmethod
    def _loops_rows(effect) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``add_self_loops(raw)`` content of the delta's touched rows
        as raw ``(data, indices, indptr)`` block arrays, built from its
        rebuilt raw rows (touched existing rows, then appended ones): drop
        diagonal and explicit-zero entries, insert a 1.0 diagonal,
        column-sort — bit-identical to the rows of the full rebuild."""
        rows = effect.touched_rows
        blocks = [block for block in (effect.replaced_block,
                                      effect.appended_block)
                  if block is not None]
        rep = np.repeat(np.arange(rows.size, dtype=np.int64),
                        np.concatenate([np.diff(b.indptr) for b in blocks]))
        raw_cols = np.concatenate([b.indices for b in blocks])
        raw_vals = np.concatenate([b.data for b in blocks])
        keep = (raw_cols != rows[rep]) & (raw_vals != 0.0)
        cols = np.concatenate([raw_cols[keep].astype(np.int64), rows])
        vals = np.concatenate([raw_vals[keep],
                               np.ones(rows.size, dtype=np.float64)])
        rowid = np.concatenate([rep[keep],
                                np.arange(rows.size, dtype=np.int64)])
        order = np.lexsort((cols, rowid))
        counts = np.bincount(rowid, minlength=rows.size)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return vals[order], cols[order], indptr

    def _affected_operator_rows(self, touched: np.ndarray) -> np.ndarray:
        """Rows whose normalized-operator content the delta changes:
        the touched rows plus every row holding an entry in a touched
        column (their scale factor changed)."""
        loops = self.base_loops
        mask = np.zeros(loops.shape[1], dtype=bool)
        mask[touched] = True
        # take() gathers through int32 indices about twice as fast as []
        hits = np.flatnonzero(mask.take(loops.indices))
        rows = np.searchsorted(loops.indptr, hits, "right") - 1
        return _sorted_unique(np.concatenate([touched, rows]), loops.shape[0])

    def _patch_degrees(self, touched: np.ndarray, old_base: int,
                       loops_rows: tuple) -> None:
        """Row-wise refresh of the degrees and ``D^{-1/2}`` (bit-exact):
        the spliced block holds exactly the touched rows' content, so
        their row sums come from it, no re-slice of ``base_loops``."""
        appended = self.num_base - old_base
        degrees = np.concatenate(
            [self._loop_degrees, np.zeros(appended, dtype=np.float64)])
        data, _, indptr = loops_rows
        degrees[touched] = _reduceat_row_sums(data, indptr[:-1],
                                              np.diff(indptr))
        self._loop_degrees = degrees
        if self._loop_inv_sqrt is not None:
            inv_sqrt = np.concatenate(
                [self._loop_inv_sqrt, np.zeros(appended, dtype=np.float64)])
            inv_sqrt[touched] = _inv_sqrt(degrees[touched])
            self._loop_inv_sqrt = inv_sqrt

    def __repr__(self) -> str:
        return (f"PreparedDeployment(deployment={self.deployment!r}, "
                f"base_nodes={self.num_base}, "
                f"model={type(self.model).__name__})")
