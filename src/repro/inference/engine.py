"""Inductive inference engine for all four deployment settings.

The engine serves batches of unseen nodes against either the *original*
graph (Eq. 3 — conventional GC and the "Whole" baseline) or a *synthetic*
graph with a mapping matrix (Eq. 11 — MCond, VNG and coresets).  For every
batch it measures wall-clock latency of the full serving path — attach,
normalize, forward — and the memory footprint of what deployment must hold:
adjacency non-zeros, features, and (for synthetic serving) the mapping.

The paper's two evaluation regimes are the ``batch_mode``:

- ``"graph"`` — inductive nodes arrive as a connected subgraph (``ea`` kept);
- ``"node"``  — they arrive in isolation (``ea`` zeroed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.errors import InferenceError
from repro.condense.base import CondensedGraph
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.incremental import (AttachedGraph, attach_to_original,
                                     attach_to_synthetic)
from repro.graph.ops import _inv_sqrt, add_self_loops, symmetric_normalize
from repro.graph.sampling import iterate_minibatches
from repro.nn.metrics import accuracy
from repro.nn.models import GNNModel, SGC
from repro.tensor.sparse import dense_memory_bytes, sparse_memory_bytes
from repro.tensor.tensor import Tensor, no_grad

if TYPE_CHECKING:  # serving sits above inference; import it lazily at runtime
    from repro.serving.prepared import PreparedDeployment

__all__ = ["InferenceReport", "InductiveServer", "serves_frozen",
           "validate_deployment"]


def validate_deployment(deployment: str, base: Graph | None,
                        condensed: CondensedGraph | None) -> None:
    """Reject inconsistent deployment configurations.

    Shared by :class:`InductiveServer` and
    :class:`repro.serving.prepared.PreparedDeployment` so both serving
    surfaces fail identically, with or without the prepared cache.
    """
    if deployment not in ("original", "synthetic"):
        raise InferenceError(
            f"deployment must be 'original' or 'synthetic', got {deployment!r}")
    if deployment == "original" and base is None:
        raise InferenceError("original deployment requires the base graph")
    if deployment == "synthetic":
        if condensed is None:
            raise InferenceError("synthetic deployment requires a condensed graph")
        if not condensed.supports_attachment():
            raise InferenceError(
                f"method {condensed.method!r} has no mapping matrix; "
                "it cannot attach inductive nodes to the synthetic graph "
                "(this is exactly the limitation of conventional GC)")


def serves_frozen(model: GNNModel, deployment: str) -> bool:
    """Whether the deployment serves the frozen operator (a synthetic
    graph under SGC) rather than the exact Eq. 3 / Eq. 11 one."""
    return deployment == "synthetic" and isinstance(model, SGC)


@dataclass
class InferenceReport:
    """Outcome of serving one inductive workload."""

    accuracy: float
    mean_batch_seconds: float
    total_seconds: float
    memory_bytes: int
    num_batches: int
    num_nodes: int
    deployment: str
    batch_mode: str
    logits: np.ndarray | None = field(repr=False, default=None)

    @property
    def mean_batch_milliseconds(self) -> float:
        return self.mean_batch_seconds * 1e3

    @property
    def memory_megabytes(self) -> float:
        return self.memory_bytes / (1024.0 * 1024.0)


class InductiveServer:
    """Serves inductive batches against one deployed graph.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.models.GNNModel`.
    deployment:
        ``"original"`` — serve on the original graph ``base``; or
        ``"synthetic"`` — serve on ``condensed`` through its mapping.
    base:
        The original graph; required for ``"original"`` deployment.  For
        ``"synthetic"`` deployment it may be ``None`` — batches carry
        their own incremental adjacency (indexed by original node ids)
        and the mapping converts it, so the original graph never has to
        be resident (that is the paper's deployment story, and why
        :class:`repro.api.DeploymentBundle` omits it).
    condensed:
        The reduced graph; required when ``deployment == "synthetic"`` and
        it must carry a mapping matrix.
    use_cache:
        When true (the default), ``serve_batch`` runs through a
        :class:`~repro.serving.prepared.PreparedDeployment`: the base
        block's self-loops, canonical form and scatter layout are
        computed once instead of re-normalizing the full ``(B+n, B+n)``
        adjacency every batch.  Logits are bitwise identical either way
        (the parity tests assert it); ``use_cache=False`` keeps the
        naive path — the reference every serving tier is checked
        against, and the baseline for benchmarking the difference.

    The naive path returns ``model(operator, X')[B:]``, except for SGC:
    its classifier is row-wise, so the reference applies ``model.head``
    to the ``n`` inductive rows of ``model.embed(operator, X')`` alone.
    That is still Eq. 3 / Eq. 11, within a tested ``1e-12`` relative
    bound of the full-shape forward (``docs/precision.md``, "Parity
    contract").

    On a synthetic SGC deployment :meth:`serve_batch` serves the frozen
    operator (:func:`serves_frozen`; the naive path builds it from plain
    scipy products), while :meth:`run` evaluates through Eq. 11.
    """

    def __init__(self, model: GNNModel, deployment: str, base: Graph | None,
                 condensed: CondensedGraph | None = None, *,
                 use_cache: bool = True) -> None:
        validate_deployment(deployment, base, condensed)
        self.model = model
        self.deployment = deployment
        self.base = base
        self.condensed = condensed
        self.use_cache = use_cache

    # Both serving states are built on first use: the cached server never
    # materializes the naive adjacency, and the uncached server never pays
    # the cache's O(nnz) construction.
    @cached_property
    def prepared(self) -> "PreparedDeployment":
        """The request-invariant cache this server serves through."""
        from repro.serving.prepared import PreparedDeployment
        return PreparedDeployment(self.model, self.deployment, self.base,
                                  self.condensed)

    @cached_property
    def _deployed(self) -> tuple:
        """``(adjacency, features, mapping)`` of the deployed graph."""
        if self.deployment == "synthetic":
            return (self.condensed.sparse_adjacency(),
                    self.condensed.features, self.condensed.mapping)
        return self.base.adjacency, self.base.features, None

    # ------------------------------------------------------------------
    def attach(self, batch: IncrementalBatch,
               batch_mode: str = "graph") -> AttachedGraph:
        """Build the augmented graph of Eq. (3) / Eq. (11) for one batch."""
        if batch_mode not in ("graph", "node"):
            raise InferenceError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        intra = batch.intra if batch_mode == "graph" else None
        adjacency, features, mapping = self._deployed
        if mapping is None:
            return attach_to_original(adjacency, features, batch.incremental,
                                      batch.features, intra)
        return attach_to_synthetic(adjacency, features, batch.incremental,
                                   batch.features, mapping, intra)

    def serve_batch(self, batch: IncrementalBatch,
                    batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Serve one batch through the deployment's operator; returns
        ``(logits, seconds, memory_bytes)``."""
        return self._serve(batch, batch_mode,
                           serves_frozen(self.model, self.deployment))

    def _serve(self, batch: IncrementalBatch, batch_mode: str,
               frozen: bool) -> tuple[np.ndarray, float, int]:
        """One batch through the frozen or the exact Eq. 3 / Eq. 11
        operator."""
        if self.use_cache:
            return (self.prepared.serve_batch_frozen if frozen else
                    self.prepared.serve_batch_exact)(batch, batch_mode)
        self.model.eval()
        start = time.perf_counter()
        attached = self.attach(batch, batch_mode)
        base_size = attached.base_size
        with no_grad():
            if frozen:
                hidden = self._frozen_hidden(attached)
                inductive = self.model.head(Tensor(hidden)).data
            elif isinstance(self.model, SGC):
                # the classifier is row-wise, so only the inductive rows of
                # Â'^K X' reach it — the (n, d) operand every serving tier
                # hands the same call
                hidden = self.model.embed(symmetric_normalize(
                    attached.adjacency), Tensor(attached.features)).data
                inductive = self.model.head(Tensor(hidden[base_size:])).data
            else:
                inductive = self.model(
                    symmetric_normalize(attached.adjacency),
                    Tensor(attached.features)).data[base_size:]
        elapsed = time.perf_counter() - start
        memory = sparse_memory_bytes(attached.adjacency)
        memory += dense_memory_bytes(attached.features)
        if self._deployed[2] is not None:
            memory += sparse_memory_bytes(self._deployed[2])
        return inductive, elapsed, memory

    def _frozen_hidden(self, attached: AttachedGraph) -> np.ndarray:
        """``h_K`` of the frozen operator from plain scipy products over
        the blocks of the attached graph: the base rows keep the
        standalone normalization of ``A' + I``; a new row is normalized
        by its own ``aM`` and ``ea + I`` entries."""
        size = attached.base_size
        base_loops = add_self_loops(attached.adjacency[:size, :size])
        inc = attached.adjacency[size:, :size]
        ea_loops = add_self_loops(attached.adjacency[size:, size:])
        ea_loops.sort_indices()
        inv_new = sp.diags(_inv_sqrt(np.asarray(
            inc.sum(axis=1) + ea_loops.sum(axis=1)).reshape(-1)))
        op_nb = inv_new @ inc @ sp.diags(_inv_sqrt(
            np.asarray(base_loops.sum(axis=1)).reshape(-1)))
        op_nn = inv_new @ ea_loops @ inv_new
        base_operator = symmetric_normalize(base_loops, self_loops=False)
        base_hop, hidden = attached.features[:size], attached.features[size:]
        for _ in range(self.model.k_hops):
            hidden = op_nb @ base_hop + op_nn @ hidden
            base_hop = base_operator @ base_hop
        return hidden

    def run(self, batch: IncrementalBatch, batch_size: int = 1000,
            batch_mode: str = "graph", frozen: bool = False) -> InferenceReport:
        """Serve the full workload in mini-batches (paper: batch size 1000).

        Every mini-batch goes through the exact Eq. 3 / Eq. 11 operator —
        on a synthetic SGC deployment too, where :meth:`serve_batch`
        serves the frozen one — unless ``frozen`` asks for the frozen
        operator (SGC only).  The paper grid's ``operator`` cells, the
        training validator and ``api.serve`` evaluate through here.
        """
        serve = partial(self._serve, frozen=frozen)
        total_nodes = batch.num_nodes
        if total_nodes == 0:
            raise InferenceError("cannot serve an empty inductive batch")
        all_logits: list[np.ndarray] = []
        seconds = []
        memories = []
        for idx in iterate_minibatches(total_nodes, batch_size):
            sub = batch.subset(idx) if idx.size != total_nodes else batch
            logits, elapsed, memory = serve(sub, batch_mode)
            all_logits.append(logits)
            seconds.append(elapsed)
            memories.append(memory)
        logits = np.vstack(all_logits)
        return InferenceReport(
            accuracy=accuracy(logits, batch.labels),
            mean_batch_seconds=float(np.mean(seconds)),
            total_seconds=float(np.sum(seconds)),
            memory_bytes=int(np.mean(memories)),
            num_batches=len(seconds),
            num_nodes=total_nodes,
            deployment=self.deployment,
            batch_mode=batch_mode,
            logits=logits)

