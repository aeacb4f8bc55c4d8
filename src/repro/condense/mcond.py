"""MCond: mapping-aware graph condensation (the paper's contribution).

Extends gradient-matching condensation with an explicitly learned
one-to-many mapping matrix ``M`` via alternating optimization
(Algorithm 1):

1. *Synthetic-graph phase* — update ``X'`` and the adjacency MLP with
   ``L_S = L_gra + lambda * L_str`` (Eq. 9), where the structure loss
   reconstructs original links from the approximate embeddings
   ``MH'`` (Eq. 7-8).  The relay GNN advances on the synthetic graph
   between steps.
2. *Mapping phase* — update ``M`` (in logit space, normalized by Eq. 15)
   with ``L_M = L_tra + beta * L_ind`` (Eq. 13): the transductive term
   anchors ``MH'`` to the original embeddings ``H`` (Eq. 10); the
   inductive term attaches *support nodes* (the validation set, labels
   unused) to both graphs and aligns their propagated embeddings
   (Eq. 11-12).

Afterwards both ``A'`` and ``M`` are threshold-sparsified (Eq. 14) for
deployment.

``H'`` has only ``N'`` rows, so no loss builds anything of the original
graph's ``(N, d)`` size: Eq. 8 scores pairs through the Gram matrix
``H'H'^T`` (:func:`~repro.condense.losses.structure_loss`), and Eq. 10
reads ``H`` only through ``H H'^T`` and its row norms
(:class:`_TransductiveFactors`).  Eq. 11/12 works on the ``(N'+n)^2``
augmented graph of the support nodes, which does not grow with ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.condense.base import CondensedGraph, allocate_class_counts
from repro.condense.gcond import (
    GCondConfig,
    GCondReducer,
    PairwiseAdjacency,
    SgcRelay,
    dense_normalize_tensor,
    init_synthetic_features,
    pretrain_adjacency_model,
)
from repro.condense.losses import inductive_loss, structure_loss
from repro.condense.mapping import MappingMatrix, sparsify_matrix
from repro.graph.datasets import IncrementalBatch, InductiveSplit
from repro.graph.incremental import attach_to_original
from repro.graph.ops import symmetric_normalize
from repro.graph.sampling import sample_edge_batch
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.tensor.tensor import (
    Tensor,
    concat,
    grad,
    no_grad,
    slice_rows,
    transpose,
)

__all__ = ["MCondConfig", "MCondResult", "MCondReducer"]

# ``l21_norm``'s default eps, under the square root of each row norm.
_L21_EPS = 1e-12
# A Gram-form ``||R_i||^2`` below this share of ``||H_i||^2`` has lost
# most of its digits to cancellation; such rows use the explicit residual.
_CANCELLATION = 1e-3


@dataclass
class MCondConfig(GCondConfig):
    """MCond hyper-parameters (superset of :class:`GCondConfig`).

    ``lambda_structure`` and ``beta_inductive`` are the loss weights of
    Eq. (9) and Eq. (13).  ``mapping_threshold`` is ``delta`` of Eq. (14);
    the adjacency threshold ``mu`` is inherited.  Ablation switches map to
    Table V's rows ("Plain" = both losses off).
    """

    lambda_structure: float = 0.1
    beta_inductive: float = 100.0
    mapping_steps: int = 30
    mapping_lr: float = 0.02         # paper uses 0.1 over thousands of epochs
    mapping_epsilon: float = 1e-5    # eps in Eq. (15)
    # delta in Eq. (14); None => adaptive 1/N'.  Rows of the normalized M
    # sum to ~1, so 1/N' is the weight an uninformative row would spread
    # over every synthetic node — entries below it carry no signal, and
    # dropping them is what keeps aM (hence the deployed graph) sparse on
    # low-homophily datasets whose learned mappings are diffuse.
    mapping_threshold: float | None = None
    edge_batch_size: int = 512
    max_support: int = 256
    class_aware_init: bool = True
    use_structure_loss: bool = True
    use_inductive_loss: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mapping_steps <= 0:
            raise CondensationError("mapping_steps must be positive")
        if self.lambda_structure < 0 or self.beta_inductive < 0:
            raise CondensationError("loss weights must be non-negative")


@dataclass
class MCondResult:
    """Everything the analysis experiments need beyond the condensed graph."""

    condensed: CondensedGraph
    mapping: MappingMatrix
    synthetic_adjacency_dense: np.ndarray
    matching_losses: list[float] = field(default_factory=list)
    structure_losses: list[float] = field(default_factory=list)
    mapping_losses: list[float] = field(default_factory=list)
    transductive_losses: list[float] = field(default_factory=list)
    inductive_losses: list[float] = field(default_factory=list)

    def condensed_with_threshold(self, delta: float) -> CondensedGraph:
        """Re-sparsify ``M`` at a different ``delta`` (Fig. 6) without retraining."""
        return CondensedGraph(
            adjacency=self.condensed.adjacency,
            features=self.condensed.features,
            labels=self.condensed.labels,
            mapping=self.mapping.sparsified(delta),
            method=self.condensed.method)


class _TransductiveFactors:
    """Eq. (10) for one mapping phase, from ``N'``-sized factors.

    ``H`` (``original``, N x d) and ``H'`` (``synthetic``, N' x d) are
    constant while ``M`` updates, and the residual ``R = H - M H'`` enters
    ``L_tra = sum_i rho_i / N`` and its gradient only through

    - ``rho_i^2 = h2_i - 2 <M_i, P_i> + <Q_i, M_i>`` and
    - ``dL_tra/dM = -(R / rho) H'^T / N = (Q - P) / (rho N)``,

    with ``P = H H'^T`` (N x N'), ``G = H' H'^T`` (N' x N'),
    ``h2_i = ||H_i||^2`` and ``Q = M G``.  ``P``, ``G`` and ``h2`` are
    built once per phase, so a step costs one ``O(N N'^2)`` gemm instead
    of two ``O(N N' d)`` ones.  Where ``rho_i^2`` falls below
    ``_CANCELLATION`` of ``h2_i``, the difference has cancelled most of
    its digits (or rounded below zero); those rows take ``rho_i^2`` and
    ``-R_i H'^T`` from their explicit residual row instead, then share the
    rest of the computation.
    """

    def __init__(self, original: np.ndarray, synthetic: np.ndarray) -> None:
        self.original = original
        self.sq_norms = np.einsum("ij,ij->i", original, original)
        self.synthetic = synthetic
        self.cross = original @ synthetic.T
        self.gram = synthetic @ synthetic.T

    def loss_and_grad(self, normalized: np.ndarray) -> tuple[float, np.ndarray]:
        """``(L_tra, dL_tra/dM)`` at the normalized mapping ``M``."""
        num_original = normalized.shape[0]
        grad_mapping = normalized @ self.gram
        grad_mapping -= self.cross
        sq_residual = (self.sq_norms
                       + np.einsum("ij,ij->i", normalized, grad_mapping)
                       - np.einsum("ij,ij->i", normalized, self.cross))
        fragile = np.flatnonzero(sq_residual < _CANCELLATION * self.sq_norms)
        if fragile.size:
            residual = (self.original[fragile]
                        - normalized[fragile] @ self.synthetic)
            sq_residual[fragile] = np.sum(residual * residual, axis=1)
            grad_mapping[fragile] = -(residual @ self.synthetic.T)
        row_norms = (sq_residual + _L21_EPS) ** 0.5
        grad_mapping /= row_norms[:, None] * float(num_original)
        return float(np.sum(row_norms) / float(num_original)), grad_mapping


class MCondReducer(GCondReducer):
    """Mapping-aware graph condensation (Algorithm 1)."""

    name = "mcond"

    def __init__(self, config: MCondConfig | None = None) -> None:
        super().__init__(config or MCondConfig())
        self.config: MCondConfig
        self.last_result: MCondResult | None = None
        # Per-run state shared with the structure-loss hook.
        self._mapping_snapshot: np.ndarray | None = None
        self._edge_rng: np.random.Generator | None = None
        self._original_adjacency: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    def reduce(self, split: InductiveSplit, budget: int) -> CondensedGraph:
        self._check_budget(split, budget)
        config = self.config
        rng = np.random.default_rng(config.seed)
        graph = split.original
        labeled = split.labeled_in_original
        counts = allocate_class_counts(graph.labels[labeled], budget,
                                       split.num_classes)

        relay = SgcRelay(graph.feature_dim, split.num_classes,
                         k_hops=config.k_hops, seed=config.seed)
        operator = symmetric_normalize(graph.adjacency)
        propagated = relay.propagate_const(operator, graph.features)
        init_source = propagated if config.init_propagated else None
        features_init, labels_syn = init_synthetic_features(
            split, counts, rng, feature_matrix=init_source)

        synthetic_features = Parameter(features_init, name="synthetic_features")
        adjacency_model = PairwiseAdjacency(graph.feature_dim,
                                            hidden=config.adjacency_hidden,
                                            seed=config.seed)
        pretrain_adjacency_model(adjacency_model, propagated[labeled],
                                 graph.labels[labeled],
                                 steps=config.adjacency_pretrain_steps,
                                 lr=config.adjacency_pretrain_lr,
                                 batch_size=config.adjacency_pretrain_batch,
                                 rng=rng)
        feature_opt = Adam([synthetic_features], lr=config.lr_features)
        adjacency_opt = Adam(adjacency_model.parameters(), lr=config.lr_adjacency)

        if config.class_aware_init:
            mapping = MappingMatrix.class_aware(
                graph.labels, labels_syn, epsilon=config.mapping_epsilon,
                seed=config.seed)
        else:
            mapping = MappingMatrix.random(
                graph.num_nodes, labels_syn.size,
                epsilon=config.mapping_epsilon, seed=config.seed)
        mapping_opt = Adam([mapping.raw], lr=config.mapping_lr)

        support = self._support_batch(split, rng)
        support_original = self._support_embedding_original(
            relay, graph, support)

        result = MCondResult(
            condensed=None,  # type: ignore[arg-type]  -- filled below
            mapping=mapping,
            synthetic_adjacency_dense=np.zeros((labels_syn.size, labels_syn.size)))
        self._edge_rng = rng
        self._original_adjacency = graph.adjacency

        for _ in range(config.outer_loops):
            relay.reinit(int(rng.integers(1 << 31)))
            # -------- synthetic-graph phase (Algorithm 1 lines 6-11) -----
            self._mapping_snapshot = mapping.normalized_array()
            for _ in range(config.match_steps):
                self._matching_step(relay, propagated, graph, labeled,
                                    synthetic_features, adjacency_model,
                                    labels_syn, feature_opt, adjacency_opt)
                self._relay_step(relay, synthetic_features, adjacency_model,
                                 labels_syn)
            # -------- mapping phase (Algorithm 1 lines 13-15) -------------
            with no_grad():
                adjacency_const = adjacency_model(
                    Tensor(synthetic_features.data)).data
                operator_syn = dense_normalize_tensor(Tensor(adjacency_const))
                synthetic_embed = relay.embed_tensor(
                    operator_syn, Tensor(synthetic_features.data)).data
            transductive = _TransductiveFactors(propagated, synthetic_embed)
            for _ in range(config.mapping_steps):
                self._mapping_step(mapping, mapping_opt, relay, transductive,
                                   adjacency_const, synthetic_features.data,
                                   support, support_original, result)

        # -------- sparsification (Algorithm 1 line 16) --------------------
        with no_grad():
            final_dense = adjacency_model(Tensor(synthetic_features.data)).data
        adjacency = sparsify_matrix(final_dense,
                                    self.config.adjacency_threshold).toarray()
        delta = config.mapping_threshold
        if delta is None:
            delta = 1.0 / labels_syn.size
        condensed = CondensedGraph(
            adjacency=adjacency,
            features=synthetic_features.data.copy(),
            labels=labels_syn,
            mapping=mapping.sparsified(delta),
            method=self.name)
        result.condensed = condensed
        result.synthetic_adjacency_dense = final_dense
        self.last_result = result
        self._mapping_snapshot = None
        self._original_adjacency = None
        return condensed

    # ------------------------------------------------------------------
    # Synthetic-graph phase: lambda * L_str added to gradient matching.
    # ------------------------------------------------------------------
    def _extra_synthetic_loss(self, embedding: Tensor) -> Tensor:
        config = self.config
        if not config.use_structure_loss or config.lambda_structure == 0:
            return Tensor(0.0)
        if self._mapping_snapshot is None or self._original_adjacency is None:
            return Tensor(0.0)
        batch = sample_edge_batch(self._original_adjacency,
                                  config.edge_batch_size, self._edge_rng)
        loss = structure_loss(self._mapping_snapshot, embedding, batch)
        return Tensor(config.lambda_structure) * loss

    # ------------------------------------------------------------------
    # Mapping phase
    # ------------------------------------------------------------------
    def _mapping_step(self, mapping, mapping_opt, relay, transductive,
                      adjacency_const, synthetic_features, support,
                      support_original, result) -> None:
        """One Adam step on ``L_M = L_tra + beta * L_ind`` (Eq. 13).

        The gradient is assembled in closed form so nothing of shape
        ``(N, N')`` enters the autodiff tape, and nothing of shape
        ``(N, d)`` is built:

        - Eq. 10: ``transductive`` (:class:`_TransductiveFactors`) gives
          ``L_tra`` and ``dL_tra/dM`` from the phase's Gram factors, at one
          ``M G`` gemm per step;
        - Eq. 11/12: ``aM`` enters a small tape over the ``(N'+n)^2``
          augmented graph as a leaf, and its gradient is pulled back to
          ``M`` through the sparse ``a^T``;
        - Eq. 15: :meth:`MappingMatrix.normalized_with_vjp` carries the
          gradient from ``M`` to the logits Adam updates.
        """
        config = self.config
        normalized, normalize_vjp = mapping.normalized_with_vjp()
        loss, grad_mapping = transductive.loss_and_grad(normalized)
        result.transductive_losses.append(loss)
        if config.use_inductive_loss and config.beta_inductive > 0:
            converted = Tensor(support.incremental @ normalized,
                               requires_grad=True)
            support_synthetic = self._support_embedding_synthetic(
                relay, adjacency_const, synthetic_features, support, converted)
            ind = inductive_loss(support_original, support_synthetic)
            result.inductive_losses.append(ind.item())
            loss = loss + config.beta_inductive * ind.item()
            (grad_converted,) = grad(ind, [converted])
            grad_mapping += support.incremental.T @ (
                config.beta_inductive * grad_converted.data)
        result.mapping_losses.append(float(loss))
        mapping_opt.apply_grads([Tensor(normalize_vjp(grad_mapping))])
        mapping_opt.step()

    def _support_batch(self, split: InductiveSplit,
                       rng: np.random.Generator) -> IncrementalBatch:
        """Support nodes = validation set (labels unused), subsampled for speed."""
        batch = split.incremental_batch("val")
        if batch.num_nodes > self.config.max_support:
            picks = rng.choice(batch.num_nodes, size=self.config.max_support,
                               replace=False)
            batch = batch.subset(np.sort(picks))
        return batch

    def _support_embedding_original(self, relay: SgcRelay, graph,
                                    support: IncrementalBatch) -> np.ndarray:
        """``H_sup``: support nodes propagated through the original graph."""
        attached = attach_to_original(graph.adjacency, graph.features,
                                      support.incremental, support.features,
                                      support.intra)
        operator = symmetric_normalize(attached.adjacency)
        embedded = relay.propagate_const(operator, attached.features)
        return embedded[attached.base_size:]

    def _support_embedding_synthetic(self, relay: SgcRelay,
                                     adjacency_const: np.ndarray,
                                     synthetic_features: np.ndarray,
                                     support: IncrementalBatch,
                                     converted: Tensor) -> Tensor:
        """``H'_sup``: support nodes attached to the synthetic graph (Eq. 11).

        Differentiable in the converted connections ``converted = aM``
        (shape ``(n, N')``), which fill the augmented adjacency's
        off-diagonal blocks.
        """
        adjacency_top = concat(
            [Tensor(adjacency_const), transpose(converted)], axis=1)
        intra_dense = Tensor(support.intra.toarray())
        adjacency_bottom = concat([converted, intra_dense], axis=1)
        augmented = concat([adjacency_top, adjacency_bottom], axis=0)
        operator = dense_normalize_tensor(augmented)
        features = Tensor(np.vstack([synthetic_features, support.features]))
        embedded = relay.embed_tensor(operator, features)
        base = adjacency_const.shape[0]
        return slice_rows(embedded, base, base + support.num_nodes)


def mcond_factory(seed: int = 0, **cfg) -> MCondReducer:
    """Build a :class:`MCondReducer` from flat kwargs."""
    return MCondReducer(MCondConfig(seed=seed, **cfg))
