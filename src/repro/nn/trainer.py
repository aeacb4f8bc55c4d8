"""Full-graph node-classification training loop with early stopping.

One trainer serves every deployment setting of the paper: the caller
supplies the propagation operator (original or synthetic graph) and an
optional validation callback — e.g. accuracy of validation nodes attached
to whichever graph the model will be deployed on.

SGC's ``Â^K X`` has no parameters, so for an SGC the loop propagates it
once per run (under ``no_grad``) and each epoch runs only the classifier
head: ``O(K·nnz·d + epochs·N·d·C)`` instead of ``O(epochs·(K·nnz·d +
N·d·C))``.  The epoch arithmetic, the dropout draws and therefore the
trained weights are bitwise those of calling ``model(operator, x)``
every epoch, which every other model still does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.nn.metrics import accuracy
from repro.nn.models import SGC, GNNModel
from repro.nn.optim import Adam
from repro.tensor.functional import cross_entropy
from repro.tensor.tensor import Tensor, gather_rows, no_grad

__all__ = ["TrainConfig", "TrainResult", "train_node_classifier",
           "evaluate_logits", "evaluate_accuracy"]


@dataclass
class TrainConfig:
    """Hyper-parameters of the training loop."""

    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 30
    eval_every: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.patience <= 0:
            raise ConfigError(f"patience must be positive, got {self.patience}")
        if self.eval_every <= 0:
            raise ConfigError(f"eval_every must be positive, got {self.eval_every}")


@dataclass
class TrainResult:
    """Outcome of :func:`train_node_classifier`."""

    best_score: float
    best_epoch: int
    epochs_run: int
    losses: list[float] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)


def train_node_classifier(
    model: GNNModel,
    operator,
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    validator: Callable[[GNNModel], float] | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Fit ``model`` on one graph with cross-entropy over ``train_idx``.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.models.GNNModel`.
    operator:
        Normalized adjacency of the training graph (sparse or dense).
    features / labels:
        Node features and integer labels of the training graph.
    train_idx:
        Indices of supervised nodes (the paper's labeled set).
    validator:
        Optional callback scoring the current model (higher is better);
        drives early stopping and best-weight restoration.  When omitted,
        training-loss improvement is used instead.
    """
    config = config or TrainConfig()
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ConfigError("train_idx is empty")
    x = Tensor(np.asarray(features, dtype=np.float64))
    logits_of_epoch = _epoch_forward(model, operator, x)
    # every row supervised in order (a synthetic or fully labeled graph):
    # no gathered (n, C) copy of the logits and its gradient on the tape
    every_row = np.array_equal(train_idx, np.arange(x.shape[0]))
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)

    best_score = -np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None
    stale = 0
    result = TrainResult(best_score=-np.inf, best_epoch=-1, epochs_run=0)

    for epoch in range(config.epochs):
        model.train()
        optimizer.zero_grad()
        logits = logits_of_epoch()
        loss = cross_entropy(
            logits if every_row else gather_rows(logits, train_idx),
            labels[train_idx])
        loss.backward()
        optimizer.step()
        loss_value = loss.item()
        # drop the epoch's tape before validating: held, its (n, C) arrays
        # sit under the validator's attached graph and the next epoch's tape
        del logits, loss
        result.losses.append(loss_value)
        result.epochs_run = epoch + 1

        if (epoch + 1) % config.eval_every:
            continue
        if validator is not None:
            model.eval()
            score = float(validator(model))
        else:
            score = -loss_value
        result.scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_state = model.state_dict()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    result.best_score = best_score
    result.best_epoch = best_epoch
    return result


def _epoch_forward(model: GNNModel, operator, x: Tensor) -> Callable[[], Tensor]:
    """The training-mode logits one epoch computes.

    For an SGC (the property ``PreparedDeployment`` keys its receptive-field
    path on) the constant ``Â^K X`` is propagated here, once; the same
    ``spmm``/``matmul`` calls make it bitwise the per-epoch value.
    """
    if isinstance(model, SGC):
        with no_grad():
            hidden = model.embed(operator, x)
        return lambda: model.head(hidden)
    return lambda: model(operator, x)


def evaluate_logits(model: GNNModel, operator, features: np.ndarray) -> np.ndarray:
    """Inference-mode logits as a plain numpy array."""
    model.eval()
    with no_grad():
        logits = model(operator, Tensor(np.asarray(features, dtype=np.float64)))
    return logits.data


def evaluate_accuracy(model: GNNModel, operator, features: np.ndarray,
                      labels: np.ndarray, indices: np.ndarray | None = None) -> float:
    """Accuracy of ``model`` on ``indices`` (all nodes when omitted)."""
    logits = evaluate_logits(model, operator, features)
    labels = np.asarray(labels)
    if indices is not None:
        idx = np.asarray(indices, dtype=np.int64)
        return accuracy(logits[idx], labels[idx])
    return accuracy(logits, labels)
