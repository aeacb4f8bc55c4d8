"""Composite differentiable functions built on the primitive ops.

Everything here is expressed in terms of :mod:`repro.tensor.tensor`
primitives, so all functions support higher-order differentiation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import (
    Tensor,
    abs_,
    as_tensor,
    div,
    exp,
    log,
    maximum_const,
    mul,
    neg,
    power,
    sub,
    tensor_mean,
    tensor_sum,
)

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "l2_row_norms",
    "l21_norm",
    "cosine_similarity_columns",
    "gradient_cosine_distance",
]

_EPS = 1e-12


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    logits = as_tensor(logits)
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = sub(logits, shift)
    exps = exp(shifted)
    denom = tensor_sum(exps, axis=axis, keepdims=True)
    return div(exps, denom)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = as_tensor(logits)
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = sub(logits, shift)
    log_norm = log(tensor_sum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, log_norm)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a constant one-hot ``(n, num_classes)`` float matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"one_hot expects 1-D labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  weights: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of ``logits`` (n, C) against integer ``labels``.

    ``weights`` optionally re-weights each sample (constant, shape ``(n,)``).
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    n, num_classes = logits.shape
    targets = Tensor(one_hot(labels, num_classes))
    log_probs = log_softmax(logits, axis=-1)
    per_sample = neg(tensor_sum(mul(targets, log_probs), axis=1))
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ShapeError(f"weights shape {w.shape} != ({n},)")
        per_sample = mul(per_sample, Tensor(w))
        return div(tensor_sum(per_sample), Tensor(float(max(w.sum(), _EPS))))
    return tensor_mean(per_sample)


def binary_cross_entropy_with_logits(
        logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Mean binary cross-entropy on raw logits (numerically stable).

    Uses the identity
    ``bce(x, t) = max(x, 0) - x*t + log(1 + exp(-|x|))``.
    """
    logits = as_tensor(logits)
    t = (as_tensor(targets) if isinstance(targets, Tensor)
         else Tensor(np.asarray(targets, dtype=np.float64)))
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {logits.shape}")
    positive_part = maximum_const(logits, 0.0)
    linear_part = mul(logits, t)
    log_part = log(Tensor(1.0) + exp(neg(abs_(logits))))
    per_element = sub(positive_part, linear_part) + log_part
    return tensor_mean(per_element)


def l2_row_norms(matrix: Tensor, eps: float = _EPS) -> Tensor:
    """Row-wise Euclidean norms of a 2-D tensor, shape ``(n,)``.

    A small ``eps`` keeps the square root differentiable at zero rows.
    """
    matrix = as_tensor(matrix)
    if matrix.ndim != 2:
        raise ShapeError(f"l2_row_norms expects a matrix, got {matrix.shape}")
    squares = tensor_sum(mul(matrix, matrix), axis=1)
    return power(squares + Tensor(eps), 0.5)


def l21_norm(matrix: Tensor, eps: float = _EPS) -> Tensor:
    """The L2,1 matrix norm: sum of row-wise L2 norms (Eq. 10/12 in MCond)."""
    return tensor_sum(l2_row_norms(matrix, eps=eps))


def cosine_similarity_columns(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Column-wise cosine similarity of two equally shaped matrices.

    Returns a tensor of shape ``(D,)`` where ``D`` is the column count; used
    by the gradient-matching distance (Eq. 5).  1-D inputs are treated as a
    single column.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a.reshape((-1, 1))
        b = b.reshape((-1, 1))
    dots = tensor_sum(mul(a, b), axis=0)
    norm_a = power(tensor_sum(mul(a, a), axis=0) + Tensor(eps), 0.5)
    norm_b = power(tensor_sum(mul(b, b), axis=0) + Tensor(eps), 0.5)
    return div(dots, mul(norm_a, norm_b))


def gradient_cosine_distance(grads_a, grads_b, eps: float = 1e-8) -> Tensor:
    """Sum over layers/columns of ``1 - cosine`` distances (Eq. 5).

    ``grads_a`` and ``grads_b`` are sequences of gradient tensors (one per
    parameter).  Each pair contributes ``sum_i (1 - cos(col_i, col'_i))``.
    """
    grads_a = list(grads_a)
    grads_b = list(grads_b)
    if len(grads_a) != len(grads_b):
        raise ShapeError(
            f"gradient lists have different lengths: {len(grads_a)} vs {len(grads_b)}")
    if not grads_a:
        raise ShapeError("gradient_cosine_distance requires at least one pair")
    total: Tensor | None = None
    for ga, gb in zip(grads_a, grads_b):
        cos = cosine_similarity_columns(ga, gb, eps=eps)
        term = tensor_sum(sub(Tensor(np.ones(cos.shape)), cos))
        total = term if total is None else total + term
    return total
