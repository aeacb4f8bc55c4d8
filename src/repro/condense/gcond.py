"""Conventional graph condensation (GCond, Jin et al. ICLR 2022) [30].

Learns synthetic features ``X'`` (and an MLP that derives ``A'`` from them,
Eq. 6) by matching the relay GNN's training gradients on the synthetic
graph against its gradients on the original graph (Eq. 4-5).  The relay is
SGC, as in the paper's experimental setup: its embedding ``Â^K X`` is
parameter-free, so the original-graph side can be propagated once and
cached, and gradient matching touches only the classifier weights.

This module also provides the two differentiable building blocks MCond
shares: the pairwise adjacency generator and dense tensor normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.condense.base import CondensedGraph, GraphReducer, allocate_class_counts
from repro.condense.losses import gradient_matching_loss
from repro.condense.mapping import sparsify_matrix
from repro.graph.datasets import InductiveSplit
from repro.graph.ops import symmetric_normalize
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.tensor.functional import binary_cross_entropy_with_logits, cross_entropy
from repro.tensor.tensor import (
    Tensor,
    gather_rows,
    grad,
    matmul,
    mul,
    no_grad,
    power,
    relu,
    reshape,
    sigmoid,
    slice_rows,
    tensor_sum,
    transpose,
)

__all__ = [
    "PairwiseAdjacency",
    "pretrain_adjacency_model",
    "dense_normalize_tensor",
    "SgcRelay",
    "GCondConfig",
    "GCondReducer",
    "init_synthetic_features",
]


class PairwiseAdjacency(Module):
    """Eq. (6): ``A'_{ij} = sigma((MLP([x_i;x_j]) + MLP([x_j;x_i])) / 2)``.

    The MLP makes ``A'`` a function of the synthetic features, so adjacency
    structure co-evolves with them during gradient matching.  The diagonal
    is masked out; normalization re-adds self-loops.

    The first layer is evaluated per node, not per pair: splitting
    ``layer_in.weight`` into its row halves ``W_a`` (rows of ``x_i``) and
    ``W_b`` (rows of ``x_j``) gives ``layer_in([x_i; x_j]) = x_i W_a +
    x_j W_b + b``.  :meth:`forward` therefore multiplies ``X`` by each half
    once and broadcasts the sum over all ordered pairs into ``F_ij =
    MLP([x_i; x_j])``; the reverse-order score is ``F_ji``, so the
    symmetric logit is ``(F + F^T) / 2``.  Cost is ``O(N' d h + N'^2 h)``
    and nothing of shape ``(N'^2, 2d)`` is ever built.
    """

    def __init__(self, feature_dim: int, hidden: int = 64, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.layer_in = Linear(2 * feature_dim, hidden, rng)
        self.layer_out = Linear(hidden, 1, rng)

    def _first_layer_halves(self, features: Tensor) -> tuple[Tensor, Tensor]:
        """``(X W_a + b, X W_b)``: ``layer_in([x_i; x_j])`` is ``left_i + right_j``."""
        dim = features.shape[1]
        weight = self.layer_in.weight
        left = matmul(features, slice_rows(weight, 0, dim)) + self.layer_in.bias
        right = matmul(features, slice_rows(weight, dim, 2 * dim))
        return left, right

    def _score(self, first_layer: Tensor) -> Tensor:
        """``layer_out(relu(.))`` over a ``(pairs, hidden)`` first-layer block."""
        return reshape(self.layer_out(relu(first_layer)), (-1,))

    def pair_logits(self, features_a: Tensor, features_b: Tensor) -> Tensor:
        """Symmetric pre-sigmoid scores for row-aligned feature pairs."""
        left_a, right_a = self._first_layer_halves(features_a)
        left_b, right_b = self._first_layer_halves(features_b)
        forward_score = self._score(left_a + right_b)
        backward_score = self._score(left_b + right_a)
        return (forward_score + backward_score) * Tensor(0.5)

    def forward(self, features: Tensor) -> Tensor:
        n = features.shape[0]
        left, right = self._first_layer_halves(features)
        hidden = left.shape[1]
        pairs = reshape(left, (n, 1, hidden)) + reshape(right, (1, n, hidden))
        ordered = reshape(self._score(reshape(pairs, (n * n, hidden))), (n, n))
        matrix = (ordered + transpose(ordered)) * Tensor(0.5)
        off_diagonal = Tensor(1.0 - np.eye(n))
        return mul(sigmoid(matrix), off_diagonal)

    def __call__(self, features: Tensor) -> Tensor:
        return self.forward(features)


def pretrain_adjacency_model(model: PairwiseAdjacency, labeled_features: np.ndarray,
                             labeled_classes: np.ndarray, steps: int = 100,
                             lr: float = 0.005, batch_size: int = 256,
                             rng: np.random.Generator | None = None) -> None:
    """Warm-start ``MLP_Phi`` on class-agreement of labeled node pairs.

    Untrained, the symmetric MLP of Eq. (6) scores every pair near 0.5, so
    the synthetic adjacency starts as an uninformative dense blob that the
    few CPU-scale matching steps cannot fix.  Condensed graphs learned by
    gradient matching are empirically dominated by intra-class edges, so we
    warm-start the MLP to score same-class pairs high and cross-class pairs
    low (balanced batches of labeled pairs); the matching loss then refines
    the topology.  Documented under "Reproduction substitutions" in
    docs/architecture.md (the paper relies on thousands of GPU epochs
    instead).
    """
    if steps <= 0:
        return
    rng = rng if rng is not None else np.random.default_rng()
    feats = np.asarray(labeled_features, dtype=np.float64)
    classes = np.asarray(labeled_classes, dtype=np.int64)
    if feats.shape[0] != classes.shape[0]:
        raise CondensationError(
            f"features rows ({feats.shape[0]}) != labels ({classes.shape[0]})")
    optimizer = Adam(model.parameters(), lr=lr)
    count = feats.shape[0]
    for _ in range(steps):
        rows = rng.integers(0, count, size=batch_size)
        cols = rng.integers(0, count, size=batch_size)
        targets = (classes[rows] == classes[cols]).astype(np.float64)
        logits = model.pair_logits(Tensor(feats[rows]), Tensor(feats[cols]))
        loss = binary_cross_entropy_with_logits(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()


def dense_normalize_tensor(adjacency: Tensor, self_loops: bool = True,
                           eps: float = 1e-9) -> Tensor:
    """Differentiable ``D^{-1/2} (A' + I) D^{-1/2}`` for dense tensors."""
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise CondensationError(
            f"adjacency must be square, got {adjacency.shape}")
    adj = adjacency + Tensor(np.eye(n)) if self_loops else adjacency
    degree = tensor_sum(adj, axis=1)
    inv_sqrt = power(degree + Tensor(eps), -0.5)
    scaled = mul(adj, reshape(inv_sqrt, (n, 1)))
    return mul(scaled, reshape(inv_sqrt, (1, n)))


class SgcRelay:
    """The relay GNN ``f``: a K-hop SGC with a linear classifier.

    Exposes exactly what condensation needs:

    - :meth:`propagate_const` — numpy K-hop propagation (original side,
      cached by callers);
    - :meth:`embed_tensor` — differentiable K-hop propagation (synthetic
      side);
    - :meth:`classifier_loss` / :meth:`fit_steps` — supervised loss and
      inner training steps of Algorithm 1 (line 11).
    """

    def __init__(self, feature_dim: int, num_classes: int, k_hops: int = 2,
                 seed: int = 0) -> None:
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.k_hops = k_hops
        self._seed = seed
        self.classifier = Linear(feature_dim, num_classes,
                                 np.random.default_rng(seed))

    def reinit(self, seed: int) -> None:
        """Draw fresh relay parameters ``theta_0 ~ P_theta`` (Eq. 4)."""
        fresh = Linear(self.feature_dim, self.num_classes,
                       np.random.default_rng(seed))
        self.classifier = fresh

    def parameters(self) -> list[Parameter]:
        return self.classifier.parameters()

    # ------------------------------------------------------------------
    def propagate_const(self, operator: sp.spmatrix,
                        features: np.ndarray) -> np.ndarray:
        """Constant K-hop propagation ``Â^K X`` (numpy)."""
        h = np.asarray(features, dtype=np.float64)
        for _ in range(self.k_hops):
            h = operator @ h
        return h

    def embed_tensor(self, operator: Tensor, features: Tensor) -> Tensor:
        """Differentiable K-hop propagation for dense operators."""
        h = features
        for _ in range(self.k_hops):
            h = matmul(operator, h)
        return h

    def logits(self, embedding: Tensor) -> Tensor:
        return self.classifier(embedding)

    def classifier_loss(self, embedding: Tensor, labels: np.ndarray,
                        indices: np.ndarray | None = None) -> Tensor:
        logits = self.logits(embedding)
        if indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
            return cross_entropy(gather_rows(logits, idx), labels[idx])
        return cross_entropy(logits, labels)

    def fit_steps(self, embedding: np.ndarray, labels: np.ndarray,
                  steps: int, lr: float = 0.01, weight_decay: float = 5e-4) -> None:
        """Train the classifier on a constant embedding for ``steps`` steps."""
        if steps <= 0:
            return
        optimizer = Adam(self.parameters(), lr=lr, weight_decay=weight_decay)
        const = Tensor(embedding)
        for _ in range(steps):
            optimizer.zero_grad()
            loss = cross_entropy(self.classifier(const), labels)
            loss.backward()
            optimizer.step()


def init_synthetic_features(split: InductiveSplit, counts: np.ndarray,
                            rng: np.random.Generator,
                            feature_matrix: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Initialize ``X'`` by sampling real labeled nodes per class.

    Returns ``(features, labels)`` ordered class by class.  GCond samples
    raw features; passing ``feature_matrix`` (e.g. the relay's propagated
    features ``Â^K X``) warm-starts the synthetic nodes at neighborhood-
    averaged prototypes, which lets the CPU-scale runs converge in tens of
    matching steps instead of the paper's thousands of GPU epochs (see
    "Reproduction substitutions" in docs/architecture.md).
    """
    graph = split.original
    source = graph.features if feature_matrix is None else np.asarray(feature_matrix)
    if source.shape[0] != graph.num_nodes:
        raise CondensationError(
            f"feature matrix has {source.shape[0]} rows for {graph.num_nodes} nodes")
    labeled = split.labeled_in_original
    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for cls, count in enumerate(counts):
        if count == 0:
            continue
        pool = labeled[graph.labels[labeled] == cls]
        if pool.size == 0:
            raise CondensationError(f"class {cls} has no labeled nodes")
        picks = rng.choice(pool, size=int(count), replace=pool.size < count)
        features.append(source[picks].copy())
        labels.append(np.full(int(count), cls, dtype=np.int64))
    return np.vstack(features), np.concatenate(labels)


@dataclass
class GCondConfig:
    """Hyper-parameters of gradient-matching condensation.

    The paper runs thousands of epochs on GPU; these defaults are sized for
    the CPU-scale simulators (see "Reproduction substitutions" in
    docs/architecture.md) while preserving the
    optimization structure: ``outer_loops`` draws of ``theta_0``, and
    ``match_steps`` gradient-matching updates per draw, interleaved with
    ``relay_steps`` relay updates on the synthetic graph.
    """

    outer_loops: int = 4
    match_steps: int = 15
    relay_steps: int = 3
    lr_features: float = 0.03
    lr_adjacency: float = 0.01
    relay_lr: float = 0.05
    k_hops: int = 2
    adjacency_hidden: int = 64
    adjacency_threshold: float = 0.5    # mu in Eq. (14)
    init_propagated: bool = True        # warm-start X' at A^K X prototypes
    adjacency_pretrain_steps: int = 150  # link-prediction warm-start of MLP_Phi
    adjacency_pretrain_lr: float = 0.01
    adjacency_pretrain_batch: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.outer_loops <= 0 or self.match_steps <= 0:
            raise CondensationError("outer_loops and match_steps must be positive")
        if self.k_hops <= 0:
            raise CondensationError(f"k_hops must be positive, got {self.k_hops}")


class GCondReducer(GraphReducer):
    """Label-based gradient matching condensation (Section III-A)."""

    name = "gcond"

    def __init__(self, config: GCondConfig | None = None) -> None:
        self.config = config or GCondConfig()

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

        for _ in range(config.outer_loops):
            relay.reinit(int(rng.integers(1 << 31)))
            for _ in range(config.match_steps):
                self._matching_step(relay, propagated, graph, labeled,
                                    synthetic_features, adjacency_model,
                                    labels_syn, feature_opt, adjacency_opt)
                self._relay_step(relay, synthetic_features, adjacency_model,
                                 labels_syn)

        adjacency = self._final_adjacency(adjacency_model, synthetic_features)
        return CondensedGraph(adjacency=adjacency,
                              features=synthetic_features.data.copy(),
                              labels=labels_syn, mapping=None, method=self.name)

    # ------------------------------------------------------------------
    def _original_gradients(self, relay: SgcRelay, propagated: np.ndarray,
                            graph, labeled: np.ndarray) -> list[Tensor]:
        loss = relay.classifier_loss(Tensor(propagated), graph.labels,
                                     indices=labeled)
        grads = grad(loss, relay.parameters())
        return [g.detach() for g in grads]

    def _matching_step(self, relay, propagated, graph, labeled,
                       synthetic_features, adjacency_model, labels_syn,
                       feature_opt, adjacency_opt) -> None:
        original_grads = self._original_gradients(relay, propagated, graph, labeled)
        adjacency = adjacency_model(synthetic_features)
        embedding = relay.embed_tensor(dense_normalize_tensor(adjacency),
                                       synthetic_features)
        loss_syn = relay.classifier_loss(embedding, labels_syn)
        synthetic_grads = grad(loss_syn, relay.parameters(), create_graph=True)
        matching = gradient_matching_loss(original_grads, synthetic_grads)
        matching = matching + self._extra_synthetic_loss(embedding)
        targets = [synthetic_features] + adjacency_model.parameters()
        grads = grad(matching, targets, allow_unused=True)
        feature_opt.apply_grads(grads[:1])
        adjacency_opt.apply_grads(grads[1:])
        feature_opt.step()
        adjacency_opt.step()

    def _extra_synthetic_loss(self, embedding: Tensor) -> Tensor:
        """Hook for subclasses (MCond adds ``lambda * L_str`` here).

        ``embedding`` is this step's differentiable ``H' = Â'^K X'``.
        """
        return Tensor(0.0)

    def _relay_step(self, relay, synthetic_features, adjacency_model,
                    labels_syn) -> None:
        """Algorithm 1 line 11: advance the relay on the (frozen) synthetic graph."""
        with no_grad():
            adjacency = adjacency_model(Tensor(synthetic_features.data))
            operator = dense_normalize_tensor(adjacency)
            embedding = relay.embed_tensor(operator,
                                           Tensor(synthetic_features.data))
        relay.fit_steps(embedding.data, labels_syn,
                        steps=self.config.relay_steps, lr=self.config.relay_lr)

    def _final_adjacency(self, adjacency_model, synthetic_features) -> np.ndarray:
        with no_grad():
            adjacency = adjacency_model(Tensor(synthetic_features.data))
        sparse = sparsify_matrix(adjacency.data, self.config.adjacency_threshold)
        return sparse.toarray()


def gcond_factory(seed: int = 0, **cfg) -> GCondReducer:
    """Build a :class:`GCondReducer` from flat kwargs."""
    return GCondReducer(GCondConfig(seed=seed, **cfg))
