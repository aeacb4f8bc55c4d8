"""Label propagation (LP) calibration on a connected graph [46].

Given the normalized operator ``S`` of an attached graph (base graph +
inductive nodes, Eq. 3 or Eq. 11, the base nodes first), LP spreads the
base nodes' known labels to the inductive rows:

    ``F <- alpha * S F + (1 - alpha) * F0``

where base rows of ``F0`` are (clamped) one-hot labels and inductive rows
start from a prior — typically the GNN's softmax output, which is
what makes this a *calibration* of the GNN rather than a replacement.

The caller normalizes once and hands the same ``S`` to the GNN forward,
LP and EP.  On MCond's connected synthetic graph the propagation runs
over ``N' + n`` nodes instead of ``N + n`` — the source of the Table III
speedups.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InferenceError
from repro.tensor.functional import one_hot

__all__ = ["label_propagation", "propagate_scores"]


def _base_size(operator, base_labels: np.ndarray, num_new: int) -> int:
    """``B``, the base rows of a square ``operator`` whose last
    ``num_new`` rows are the inductive ones; ``base_labels`` must label
    exactly those ``B`` rows."""
    rows, columns = operator.shape
    if rows != columns:
        raise InferenceError(f"operator must be square, got {operator.shape}")
    base_size = rows - num_new
    if base_labels.shape != (base_size,):
        raise InferenceError(
            f"base_labels shape {base_labels.shape} != ({base_size},): the "
            f"operator has {rows} rows, {num_new} of them inductive")
    return base_size


def _inductive_rows(scores: np.ndarray, name: str, num_classes: int) -> int:
    """``n``, the row count of the ``(n, C)`` inductive ``scores``."""
    if scores.ndim != 2 or scores.shape[1] != num_classes:
        raise InferenceError(
            f"{name} shape {scores.shape} is not (n, {num_classes})")
    return scores.shape[0]


def propagate_scores(operator, initial: np.ndarray,
                     clamp_rows: np.ndarray, clamp_values: np.ndarray,
                     alpha: float = 0.8, iterations: int = 20) -> np.ndarray:
    """Generic clamped propagation over the normalized ``operator``, used
    by both LP and EP.

    ``clamp_rows`` are reset to ``clamp_values`` after every step (label
    clamping in classic LP).
    """
    if not 0.0 < alpha < 1.0:
        raise InferenceError(f"alpha must be in (0, 1), got {alpha}")
    if iterations <= 0:
        raise InferenceError(f"iterations must be positive, got {iterations}")
    scores = np.array(initial, dtype=np.float64, copy=True)
    anchor = np.array(scores, copy=True)
    for _ in range(iterations):
        scores = alpha * (operator @ scores) + (1.0 - alpha) * anchor
        scores[clamp_rows] = clamp_values
    return scores


def label_propagation(operator, base_labels: np.ndarray,
                      num_classes: int, prior: np.ndarray,
                      alpha: float = 0.8, iterations: int = 20) -> np.ndarray:
    """Propagate base labels to the attached inductive nodes.

    Parameters
    ----------
    operator:
        ``(B+n, B+n)`` normalized adjacency of the attached graph, the
        ``n`` inductive nodes last.
    base_labels:
        ``(B,)`` integer labels of the base (original or synthetic) nodes.
    prior:
        ``(n, C)`` prior scores for the inductive rows (the GNN's softmax
        output; zeros for pure LP); its row count is ``n``.

    Returns
    -------
    ``(n, C)`` propagated scores for the inductive rows.
    """
    base_labels = np.asarray(base_labels, dtype=np.int64)
    prior = np.asarray(prior, dtype=np.float64)
    num_new = _inductive_rows(prior, "prior", num_classes)
    base_size = _base_size(operator, base_labels, num_new)
    clamp_values = one_hot(base_labels, num_classes)
    initial = np.zeros((operator.shape[0], num_classes), dtype=np.float64)
    initial[:base_size] = clamp_values
    initial[base_size:] = prior
    scores = propagate_scores(operator, initial,
                              clamp_rows=np.arange(base_size),
                              clamp_values=clamp_values,
                              alpha=alpha, iterations=iterations)
    return scores[base_size:]
