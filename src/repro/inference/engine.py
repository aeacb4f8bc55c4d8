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
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InferenceError
from repro.condense.base import CondensedGraph
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.incremental import (AttachedGraph, attach_to_original,
                                     attach_to_synthetic)
from repro.graph.ops import symmetric_normalize
from repro.graph.sampling import iterate_minibatches
from repro.nn.metrics import accuracy
from repro.nn.models import GNNModel, SGC
from repro.tensor.sparse import dense_memory_bytes, sparse_memory_bytes
from repro.tensor.tensor import Tensor, no_grad

if TYPE_CHECKING:  # serving sits above inference; import it lazily at runtime
    from repro.serving.prepared import PreparedDeployment

__all__ = ["InferenceReport", "InductiveServer", "run_inference",
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
    """

    def __init__(self, model: GNNModel, deployment: str, base: Graph | None,
                 condensed: CondensedGraph | None = None, *,
                 use_cache: bool = True) -> None:
        validate_deployment(deployment, base, condensed)
        # Both serving states are built on first use: the cached server
        # never materializes the naive adjacency/feature views, and the
        # uncached server never pays the cache's O(nnz) construction.
        self._prepared = None
        self._naive_state: tuple | None = None
        self.model = model
        self.deployment = deployment
        self.base = base
        self.condensed = condensed
        self.use_cache = use_cache

    @property
    def prepared(self) -> "PreparedDeployment":
        """The request-invariant cache this server serves through."""
        if self._prepared is None:
            from repro.serving.prepared import PreparedDeployment
            self._prepared = PreparedDeployment(self.model, self.deployment,
                                                self.base, self.condensed)
        return self._prepared

    @property
    def _adjacency(self):
        return self._naive()[0]

    @property
    def _features(self):
        return self._naive()[1]

    @property
    def _mapping(self):
        return self._naive()[2]

    def _naive(self) -> tuple:
        if self._naive_state is None:
            if self.deployment == "synthetic":
                assert self.condensed is not None
                self._naive_state = (self.condensed.sparse_adjacency(),
                                     self.condensed.features,
                                     self.condensed.mapping)
            else:
                self._naive_state = (self.base.adjacency,
                                     self.base.features, None)
        return self._naive_state

    # ------------------------------------------------------------------
    def attach(self, batch: IncrementalBatch,
               batch_mode: str = "graph") -> AttachedGraph:
        """Build the augmented graph of Eq. (3) / Eq. (11) for one batch."""
        if batch_mode not in ("graph", "node"):
            raise InferenceError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        intra = batch.intra if batch_mode == "graph" else None
        if self.deployment == "original":
            return attach_to_original(self._adjacency, self._features,
                                      batch.incremental, batch.features, intra)
        return attach_to_synthetic(self._adjacency, self._features,
                                   batch.incremental, batch.features,
                                   self._mapping, intra)

    def serve_batch(self, batch: IncrementalBatch,
                    batch_mode: str = "graph") -> tuple[np.ndarray, float, int]:
        """Serve one batch; returns ``(logits, seconds, memory_bytes)``."""
        if self.use_cache:
            return self.prepared.serve_batch(batch, batch_mode)
        self.model.eval()
        start = time.perf_counter()
        attached = self.attach(batch, batch_mode)
        operator = symmetric_normalize(attached.adjacency)
        base_size = attached.base_size
        with no_grad():
            features = Tensor(attached.features)
            if isinstance(self.model, SGC):
                # the classifier is row-wise, so only the inductive rows of
                # Â'^K X' reach it — the (n, d) operand every serving tier
                # hands the same call
                hidden = self.model.embed(operator, features).data
                inductive = self.model.head(Tensor(hidden[base_size:])).data
            else:
                inductive = self.model(operator, features).data[base_size:]
        elapsed = time.perf_counter() - start
        memory = sparse_memory_bytes(attached.adjacency)
        memory += dense_memory_bytes(attached.features)
        if self._mapping is not None:
            memory += sparse_memory_bytes(self._mapping)
        return inductive, elapsed, memory

    def run(self, batch: IncrementalBatch, batch_size: int = 1000,
            batch_mode: str = "graph", frozen: bool = False) -> InferenceReport:
        """Serve the full workload in mini-batches (paper: batch size 1000).

        ``frozen`` serves every mini-batch through
        :meth:`~repro.serving.prepared.PreparedDeployment.serve_batch_frozen`
        (SGC only) instead of the exact Eq. 3 / Eq. 11 :meth:`serve_batch`.
        """
        serve = self.prepared.serve_batch_frozen if frozen else self.serve_batch
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


def run_inference(model: GNNModel, deployment: str, base: Graph,
                  batch: IncrementalBatch,
                  condensed: CondensedGraph | None = None,
                  batch_size: int = 1000,
                  batch_mode: str = "graph") -> InferenceReport:
    """One-shot convenience wrapper around :class:`InductiveServer`."""
    server = InductiveServer(model, deployment, base, condensed)
    return server.run(batch, batch_size=batch_size, batch_mode=batch_mode)
