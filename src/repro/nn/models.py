"""GNN architectures used in the paper's experiments.

All models share one interface:

- ``embed(operator, x)`` — node representations ``H = f(A, X)`` used by
  MCond's structure/transductive/inductive losses;
- ``forward(operator, x)`` — class logits (``classifier(f(A, X))``);
- the propagation ``operator`` is a normalized adjacency, either a constant
  scipy sparse matrix or a differentiable dense :class:`Tensor`.

SGC is the relay/deployment default (as in the paper); GCN, GraphSAGE,
APPNP and Cheby cover the generalizability study (Table IV).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, RegistryError
from repro.nn.layers import (APPNPPropagate, ChebConv, GCNConv, Linear,
                             SAGEConv, propagate)
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, as_tensor, dropout, relu

__all__ = ["GNNModel", "SGC", "GCN", "GraphSAGE", "APPNP", "Cheby", "MLP",
           "MODELS", "make_model"]


class GNNModel(Module):
    """Shared base: dropout bookkeeping and the embed/forward contract."""

    def __init__(self, dropout_rate: float, seed: int) -> None:
        super().__init__()
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {dropout_rate}")
        self.dropout_rate = dropout_rate
        self._dropout_rng = np.random.default_rng(seed ^ 0x5EED)

    def _maybe_dropout(self, h: Tensor) -> Tensor:
        return dropout(h, self.dropout_rate, rng=self._dropout_rng,
                       training=self.training)

    # Subclasses implement these two.
    def embed(self, operator, x) -> Tensor:
        """Penultimate node representations under ``operator``.

        The serving contract behind the ``embed``/``link_score``/``topk``
        tasks (:mod:`repro.serving.embeddings`): every registered model
        returns the representation its classifier head consumes, and
        ``forward`` must factor through it.  Under ``eval()`` the output
        is deterministic (dropout is identity), so cached base-node
        embeddings stay bitwise-comparable across processes.
        """
        raise NotImplementedError

    def forward(self, operator, x) -> Tensor:
        raise NotImplementedError

    def __call__(self, operator, x) -> Tensor:
        return self.forward(operator, x)


class SGC(GNNModel):
    """Simplified Graph Convolution: ``logits = Â^K X W``.

    The embedding is the parameter-free K-hop propagation ``Â^K X``; the
    classifier is a single linear layer.  This is the relay model used for
    condensation in the paper (fast, and gradient matching touches only
    ``W``).  ``forward`` is ``head(embed(operator, x))``, so a caller
    that reuses one ``Â^K X`` across steps — the trainer propagates once
    per run and runs only ``head`` each epoch — gets bitwise the same
    logits and the same dropout draws.
    """

    def __init__(self, in_features: int, num_classes: int, k_hops: int = 2,
                 dropout_rate: float = 0.0, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        self.k_hops = int(k_hops)
        rng = np.random.default_rng(seed)
        self.classifier = Linear(in_features, num_classes, rng)

    def embed(self, operator, x) -> Tensor:
        h = as_tensor(x)
        for _ in range(self.k_hops):
            h = propagate(operator, h)
        return h

    def head(self, h: Tensor) -> Tensor:
        """Logits from propagated features ``h = Â^K X``."""
        return self.classifier(self._maybe_dropout(h))

    def forward(self, operator, x) -> Tensor:
        return self.head(self.embed(operator, x))


class GCN(GNNModel):
    """Graph Convolutional Network (Kipf & Welling), L layers."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        if num_layers < 2:
            raise ConfigError(f"GCN needs >= 2 layers, got {num_layers}")
        rng = np.random.default_rng(seed)
        self.num_layers = num_layers
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        for i in range(num_layers):
            setattr(self, f"conv_{i}", GCNConv(dims[i], dims[i + 1], rng))

    def embed(self, operator, x) -> Tensor:
        h = as_tensor(x)
        for i in range(self.num_layers - 1):
            h = relu(getattr(self, f"conv_{i}")(operator, h))
            h = self._maybe_dropout(h)
        return h

    def forward(self, operator, x) -> Tensor:
        h = self.embed(operator, x)
        return getattr(self, f"conv_{self.num_layers - 1}")(operator, h)


class GraphSAGE(GNNModel):
    """GraphSAGE with mean-style neighbor aggregation and concat update."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        if num_layers < 2:
            raise ConfigError(f"GraphSAGE needs >= 2 layers, got {num_layers}")
        rng = np.random.default_rng(seed)
        self.num_layers = num_layers
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        for i in range(num_layers):
            setattr(self, f"conv_{i}", SAGEConv(dims[i], dims[i + 1], rng))

    def embed(self, operator, x) -> Tensor:
        h = as_tensor(x)
        for i in range(self.num_layers - 1):
            h = relu(getattr(self, f"conv_{i}")(operator, h))
            h = self._maybe_dropout(h)
        return h

    def forward(self, operator, x) -> Tensor:
        h = self.embed(operator, x)
        return getattr(self, f"conv_{self.num_layers - 1}")(operator, h)


class APPNP(GNNModel):
    """Predict-then-propagate: an MLP followed by PPR propagation."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 k_hops: int = 10, alpha: float = 0.1,
                 dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        rng = np.random.default_rng(seed)
        self.linear_in = Linear(in_features, hidden, rng)
        self.linear_out = Linear(hidden, num_classes, rng)
        self.propagation = APPNPPropagate(k_hops, alpha)

    def embed(self, operator, x) -> Tensor:
        h = relu(self.linear_in(as_tensor(x)))
        h = self._maybe_dropout(h)
        return self.propagation(operator, h)

    def forward(self, operator, x) -> Tensor:
        return self.linear_out(self.embed(operator, x))


class Cheby(GNNModel):
    """Two-layer Chebyshev spectral GNN."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 order: int = 2, dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        rng = np.random.default_rng(seed)
        self.conv_in = ChebConv(in_features, hidden, order, rng)
        self.conv_out = ChebConv(hidden, num_classes, order, rng)

    def embed(self, operator, x) -> Tensor:
        h = relu(self.conv_in(operator, as_tensor(x)))
        return self._maybe_dropout(h)

    def forward(self, operator, x) -> Tensor:
        return self.conv_out(operator, self.embed(operator, x))


class MLP(GNNModel):
    """Structure-free baseline: ignores the propagation operator."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(dropout_rate, seed)
        rng = np.random.default_rng(seed)
        self.linear_in = Linear(in_features, hidden, rng)
        self.linear_out = Linear(hidden, num_classes, rng)

    def embed(self, operator, x) -> Tensor:
        h = relu(self.linear_in(as_tensor(x)))
        return self._maybe_dropout(h)

    def forward(self, operator, x) -> Tensor:
        return self.linear_out(self.embed(operator, x))


#: Every architecture by name.
MODELS = {"sgc": SGC, "gcn": GCN, "graphsage": GraphSAGE, "appnp": APPNP,
          "cheby": Cheby, "mlp": MLP}


def make_model(name: str, in_features: int, num_classes: int,
               seed: int = 0, **kwargs) -> GNNModel:
    """Instantiate the :data:`MODELS` architecture named ``name``.

    The returned model carries ``registry_name`` and ``build_config``
    attributes recording how to rebuild it — :class:`repro.api.DeploymentBundle`
    persists these alongside the weights.
    """
    if name not in MODELS:
        raise RegistryError(
            f"unknown model architecture {name!r}; "
            f"available: {', '.join(sorted(MODELS))}")
    model = MODELS[name](in_features, num_classes, seed=seed, **kwargs)
    model.registry_name = name
    model.build_config = {"in_features": in_features,
                          "num_classes": num_classes, "seed": seed, **kwargs}
    return model
