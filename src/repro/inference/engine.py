"""The uncached inductive serving reference, and the evaluation report.

:class:`InductiveServer` serves unseen nodes against either the *original*
graph (Eq. 3 — conventional GC and the "Whole" baseline) or a *synthetic*
graph with a mapping matrix (Eq. 11 — MCond, VNG and coresets) from plain
scipy products: attach, normalize, forward.  Every serving tier is checked
against it bit for bit; the one evaluation path,
:meth:`repro.serving.prepared.PreparedDeployment.evaluate`, reports an
:class:`InferenceReport`.

The paper's two evaluation regimes are the ``batch_mode``:

- ``"graph"`` — inductive nodes arrive as a connected subgraph (``ea`` kept);
- ``"node"``  — they arrive in isolation (``ea`` zeroed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.errors import InferenceError
from repro.condense.base import CondensedGraph
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.incremental import (AttachedGraph, attach_to_original,
                                     attach_to_synthetic)
from repro.graph.ops import _inv_sqrt, add_self_loops, symmetric_normalize
from repro.nn.models import GNNModel, SGC
from repro.tensor.sparse import dense_memory_bytes, sparse_memory_bytes
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["InferenceReport", "InductiveServer", "serves_frozen",
           "validate_deployment"]


def validate_deployment(deployment: str, base: Graph | None,
                        condensed: CondensedGraph | None) -> None:
    """Reject inconsistent deployment configurations.

    Shared by :class:`InductiveServer` and
    :class:`repro.serving.prepared.PreparedDeployment` so the reference
    and the cache fail identically.
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
    """The uncached serving reference for one deployed graph.

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
        Only ``False``: the server always re-attaches and re-normalizes
        the full ``(B+n, B+n)`` adjacency; the cache is
        :class:`~repro.serving.prepared.PreparedDeployment`.

    The naive path returns ``model(operator, X')[B:]``, except for SGC:
    its classifier is row-wise, so the reference applies ``model.head``
    to the ``n`` inductive rows of ``model.embed(operator, X')`` alone.
    That is still Eq. 3 / Eq. 11, within a tested ``1e-12`` relative
    bound of the full-shape forward (``docs/precision.md``, "Parity
    contract").  On a synthetic SGC deployment :meth:`serve_batch`
    serves the frozen operator (:func:`serves_frozen`), built here from
    plain scipy products.
    """

    def __init__(self, model: GNNModel, deployment: str, base: Graph | None,
                 condensed: CondensedGraph | None = None, *,
                 use_cache: bool = False) -> None:
        # the keyword stays only because the benchmark harness passes
        # use_cache=False; it goes with the next benchmark change
        if use_cache:
            raise InferenceError(
                "InductiveServer is the uncached reference; serve through "
                "repro.serving.prepared.PreparedDeployment for the cache")
        validate_deployment(deployment, base, condensed)
        self.model = model
        self.deployment = deployment
        self.base = base
        self.condensed = condensed

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
