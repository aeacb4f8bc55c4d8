"""Neural substrate: modules, GNN models, optimizers, trainer, metrics.

:data:`~repro.nn.models.MODELS` is the table of every architecture by
name; :func:`~repro.nn.models.make_model` resolves them, and
:mod:`repro.api` builds on that.
"""

from repro.nn.module import Module, Parameter
from repro.nn.init import glorot_uniform, glorot_normal, zeros, uniform
from repro.nn.layers import (
    propagate,
    Linear,
    GCNConv,
    SAGEConv,
    ChebConv,
    APPNPPropagate,
    MLPBlock,
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
from repro.nn.optim import Optimizer, SGD, Adam
from repro.nn.trainer import (
    TrainConfig,
    TrainResult,
    train_node_classifier,
    evaluate_logits,
    evaluate_accuracy,
)
from repro.nn.metrics import (accuracy, macro_f1, confusion_matrix,
                              predictions_from_logits)


__all__ = [
    "Module", "Parameter",
    "glorot_uniform", "glorot_normal", "zeros", "uniform",
    "propagate", "Linear", "GCNConv", "SAGEConv", "ChebConv",
    "APPNPPropagate", "MLPBlock",
    "GNNModel", "SGC", "GCN", "GraphSAGE", "APPNP", "Cheby", "MLP",
    "MODELS", "make_model",
    "Optimizer", "SGD", "Adam",
    "TrainConfig", "TrainResult", "train_node_classifier",
    "evaluate_logits", "evaluate_accuracy",
    "accuracy", "macro_f1", "confusion_matrix", "predictions_from_logits",
]
