"""Error propagation (EP) calibration — the "correct" step of
Correct & Smooth (Huang et al.) [47].

The GNN's residual errors on *base* nodes (whose labels are known) are
propagated through the connected graph and used to revise the inductive
predictions:

    ``E0[base]      = onehot(y_base) - softmax(logits_base)``
    ``E  <- alpha * S E + (1 - alpha) * E0``   (inductive rows start at 0)
    ``corrected     = softmax(logits_inductive) + gamma * E[inductive]``

On the synthetic graph the base nodes are the ``N'`` synthetic nodes with
their predefined labels ``Y'``, so the propagation cost again scales with
``N'`` rather than ``N``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import InferenceError
from repro.graph.incremental import AttachedGraph
from repro.propagation.label_prop import propagate_scores
from repro.tensor.functional import one_hot

__all__ = ["error_propagation", "softmax_rows"]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise numpy softmax (inference-side, no autodiff needed)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def error_propagation(attached: AttachedGraph, base_labels: np.ndarray,
                      base_logits: np.ndarray, inductive_logits: np.ndarray,
                      num_classes: int, alpha: float = 0.8,
                      iterations: int = 20, gamma: float = 1.0,
                      return_time: bool = False):
    """Correct inductive predictions with propagated base-node errors.

    Parameters
    ----------
    base_labels / base_logits:
        Labels and model logits of the ``B`` base nodes.
    inductive_logits:
        Model logits of the ``n`` attached inductive nodes.
    gamma:
        Correction strength applied to the propagated error.
    return_time:
        Also return the propagation wall-clock seconds.

    Returns
    -------
    ``(n, C)`` corrected class scores for the inductive nodes.
    """
    base_labels = np.asarray(base_labels, dtype=np.int64)
    base_logits = np.asarray(base_logits, dtype=np.float64)
    inductive_logits = np.asarray(inductive_logits, dtype=np.float64)
    if base_labels.shape[0] != attached.base_size:
        raise InferenceError(
            f"base_labels has {base_labels.shape[0]} rows, expected "
            f"{attached.base_size}")
    if base_logits.shape != (attached.base_size, num_classes):
        raise InferenceError(
            f"base_logits shape {base_logits.shape} != "
            f"({attached.base_size}, {num_classes})")
    if inductive_logits.shape != (attached.num_new, num_classes):
        raise InferenceError(
            f"inductive_logits shape {inductive_logits.shape} != "
            f"({attached.num_new}, {num_classes})")

    base_probs = softmax_rows(base_logits)
    errors = np.zeros((attached.num_nodes, num_classes), dtype=np.float64)
    errors[:attached.base_size] = one_hot(base_labels, num_classes) - base_probs

    start = time.perf_counter()
    # LP's loop with no clamped rows: the base errors anchor, not clamp
    errors = propagate_scores(attached, errors, np.empty(0, dtype=np.int64),
                              np.empty((0, num_classes)), alpha=alpha,
                              iterations=iterations)
    corrected = softmax_rows(inductive_logits) + gamma * errors[attached.base_size:]
    elapsed = time.perf_counter() - start
    if return_time:
        return corrected, elapsed
    return corrected
