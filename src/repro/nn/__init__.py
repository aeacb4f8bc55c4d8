"""Neural substrate: modules, GNN models, the Adam optimizer, trainer, metrics.

:data:`~repro.nn.models.MODELS` is the table of every architecture by
name; :func:`~repro.nn.models.make_model` resolves them, and
:mod:`repro.api` builds on that.
"""

from repro.nn.module import Module, Parameter
from repro.nn.init import glorot_uniform, zeros, uniform
from repro.nn.layers import (
    propagate,
    Linear,
    GCNConv,
    SAGEConv,
    ChebConv,
    APPNPPropagate,
)
from repro.nn.models import (
    GNNModel,
    SGC,
    GCN,
    GraphSAGE,
    APPNP,
    Cheby,
    MLP,
    MODELS,
    make_model,
)
from repro.nn.optim import Optimizer, Adam
from repro.nn.trainer import (
    TrainConfig,
    TrainResult,
    train_node_classifier,
    evaluate_logits,
    evaluate_accuracy,
)
from repro.nn.metrics import accuracy, predictions_from_logits


__all__ = [
    "Module", "Parameter",
    "glorot_uniform", "zeros", "uniform",
    "propagate", "Linear", "GCNConv", "SAGEConv", "ChebConv",
    "APPNPPropagate",
    "GNNModel", "SGC", "GCN", "GraphSAGE", "APPNP", "Cheby", "MLP",
    "MODELS", "make_model",
    "Optimizer", "Adam",
    "TrainConfig", "TrainResult", "train_node_classifier",
    "evaluate_logits", "evaluate_accuracy",
    "accuracy", "predictions_from_logits",
]
