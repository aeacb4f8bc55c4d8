"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["accuracy", "predictions_from_logits"]


def predictions_from_logits(logits: np.ndarray) -> np.ndarray:
    """Argmax class predictions from a ``(n, C)`` score matrix."""
    scores = np.asarray(logits)
    if scores.ndim != 2:
        raise ShapeError(f"expected 2-D logits, got shape {scores.shape}")
    return scores.argmax(axis=1)


def accuracy(logits_or_preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions; accepts logits or class indices."""
    arr = np.asarray(logits_or_preds)
    preds = predictions_from_logits(arr) if arr.ndim == 2 else arr
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ShapeError(f"predictions {preds.shape} vs labels {labels.shape}")
    if labels.size == 0:
        raise ShapeError("cannot compute accuracy of an empty label set")
    return float((preds == labels).mean())
