"""The mapping matrix ``M`` of MCond.

``M`` is an ``(N, N')`` non-negative matrix expressing each original node
as a weighted ensemble of synthetic nodes.  This module implements:

- class-aware initialization (Section III-E, Fig. 5b),
- the row normalization of Eq. (15),
- threshold sparsification of Eq. (14),
- block-structure statistics used by the Fig. 5 analysis.

During training the dense, normalized form is used end-to-end (its
gradient comes from the closed-form VJP, not the autodiff tape); the
sparse thresholded form is what gets deployed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import sigmoid

__all__ = ["MappingMatrix", "class_aware_logits", "sparsify_matrix",
           "class_block_mass"]


def class_aware_logits(original_labels: np.ndarray, synthetic_labels: np.ndarray,
                       same_class: float = 6.0, other_class: float = -6.0,
                       noise: float = 0.01,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Logit-domain class-aware initialization of ``M``.

    The paper sets ``M[i, j]`` to a constant for same-class pairs and 0
    otherwise, then squashes rows through a sigmoid (Eq. 15).  Working in
    the logit domain, that corresponds to a high logit for same-class pairs
    and a low one otherwise; a pinch of noise breaks ties between synthetic
    nodes of the same class.  The gap must be wide enough that, after the
    row normalization, same-class entries dominate even when a class holds
    only a handful of the ``N'`` synthetic nodes (with C classes the
    cross-class mass scales like ``sigma(other) * N'``) — ±6 keeps the
    initial correct-class mass above 90% for all evaluated datasets.
    """
    original_labels = np.asarray(original_labels, dtype=np.int64)
    synthetic_labels = np.asarray(synthetic_labels, dtype=np.int64)
    same = original_labels[:, None] == synthetic_labels[None, :]
    logits = np.where(same, same_class, other_class).astype(np.float64)
    if noise > 0:
        rng = rng if rng is not None else np.random.default_rng()
        logits += noise * rng.standard_normal(logits.shape)
    return logits


class MappingMatrix(Module):
    """Trainable mapping with the Eq. (15) normalization built in.

    The raw parameter lives in logit space.  :meth:`normalized_with_vjp`
    is the one Eq. (15) forward — ``s = sigma(raw)``, ``r = rowsum(s)``,
    ``n = s / r``, ``M = max(n - eps, 0)`` — returned with its
    vector-Jacobian product: for an upstream gradient ``g`` on ``M``,

    - ``g_n = g * [n > eps]``  (the ReLU mask; all ones when ``eps = 0``),
    - ``g_s = (g_n - rowsum(g_n * n)) / r``,
    - ``g_raw = g_s * s * (1 - s)``.

    :meth:`normalized_array` is its forward alone, and :meth:`sparsified`
    thresholds it into the deployable CSR matrix (Eq. 14).
    """

    def __init__(self, logits: np.ndarray, epsilon: float = 1e-5) -> None:
        super().__init__()
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 2:
            raise CondensationError(
                f"mapping logits must be 2-D, got shape {logits.shape}")
        if epsilon < 0:
            raise CondensationError(f"epsilon must be >= 0, got {epsilon}")
        self.raw = Parameter(logits, name="mapping_logits")
        self.epsilon = float(epsilon)

    @classmethod
    def class_aware(cls, original_labels: np.ndarray, synthetic_labels: np.ndarray,
                    epsilon: float = 1e-5, seed: int = 0) -> "MappingMatrix":
        """Construct with the class-aware initialization of the paper."""
        rng = np.random.default_rng(seed)
        return cls(class_aware_logits(original_labels, synthetic_labels, rng=rng),
                   epsilon=epsilon)

    @classmethod
    def random(cls, num_original: int, num_synthetic: int,
               epsilon: float = 1e-5, seed: int = 0,
               scale: float = 0.1) -> "MappingMatrix":
        """Random-initialization baseline used by the Fig. 5(c) ablation."""
        rng = np.random.default_rng(seed)
        logits = scale * rng.standard_normal((num_original, num_synthetic))
        return cls(logits, epsilon=epsilon)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape

    def normalized_with_vjp(
            self) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Eq. (15) ``M_i <- ReLU(sigma(M_i) / sum_j sigma(M_ij) - eps)``
        and the map from a gradient on ``M`` to one on ``raw``."""
        squashed = sigmoid(self.raw.data).data
        row_sums = squashed.sum(axis=1, keepdims=True)
        normalized = squashed / row_sums
        mask = None
        out = normalized
        if self.epsilon > 0:
            out = normalized - self.epsilon
            mask = out > 0
            np.maximum(out, 0.0, out=out)

        def vjp(upstream: np.ndarray) -> np.ndarray:
            g = upstream * mask if mask is not None else upstream.copy()
            g -= (g * normalized).sum(axis=1, keepdims=True)
            g /= row_sums
            g *= squashed * (1.0 - squashed)
            return g

        return out, vjp

    def normalized_array(self) -> np.ndarray:
        """The Eq. (15) forward of :meth:`normalized_with_vjp`, without the VJP."""
        return self.normalized_with_vjp()[0]

    def sparsified(self, delta: float) -> sp.csr_matrix:
        """Eq. (14): zero entries below ``delta`` and return CSR."""
        return sparsify_matrix(self.normalized_array(), delta)


def sparsify_matrix(matrix: np.ndarray, threshold: float) -> sp.csr_matrix:
    """Eq. (14) thresholding for both ``A'`` and ``M``."""
    if threshold < 0:
        raise CondensationError(f"threshold must be >= 0, got {threshold}")
    dense = np.asarray(matrix, dtype=np.float64)
    kept = np.where(dense >= threshold, dense, 0.0)
    csr = sp.csr_matrix(kept)
    csr.eliminate_zeros()
    return csr


def class_block_mass(mapping: np.ndarray | sp.spmatrix,
                     original_labels: np.ndarray,
                     synthetic_labels: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """Aggregate mapping mass into a ``(C, C)`` class-to-class matrix.

    Entry ``(c, c')`` is the mean weight from original nodes of class ``c``
    to synthetic nodes of class ``c'`` — the quantity visualized in
    Fig. 5(a)/(b); a diagonal-dominant matrix indicates that original nodes
    are represented chiefly by same-class synthetic nodes.
    """
    dense = mapping.toarray() if sp.issparse(mapping) else np.asarray(mapping)
    original_labels = np.asarray(original_labels, dtype=np.int64)
    synthetic_labels = np.asarray(synthetic_labels, dtype=np.int64)
    out = np.zeros((num_classes, num_classes), dtype=np.float64)
    for row_class in range(num_classes):
        rows = original_labels == row_class
        if not rows.any():
            continue
        block = dense[rows]
        for col_class in range(num_classes):
            cols = synthetic_labels == col_class
            if not cols.any():
                continue
            out[row_class, col_class] = float(block[:, cols].mean())
    return out
