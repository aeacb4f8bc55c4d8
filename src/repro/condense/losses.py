"""The four loss terms of MCond (Eq. 5, 8, 10, 12).

Synthetic-graph update:  ``L_S = L_gra + lambda * L_str``   (Eq. 9)
Mapping update:          ``L_M = L_tra + beta  * L_ind``    (Eq. 13)

All losses are plain functions over tensors so they can be unit-tested and
recombined (the Table V ablations switch individual terms off).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CondensationError
from repro.graph.sampling import EdgeBatch
from repro.tensor.functional import (
    binary_cross_entropy_with_logits,
    gradient_cosine_distance,
    l21_norm,
)
from repro.tensor.tensor import (
    Tensor,
    as_tensor,
    gather_rows,
    matmul,
    mul,
    sub,
    tensor_sum,
    transpose,
)

__all__ = [
    "gradient_matching_loss",
    "structure_loss",
    "transductive_loss",
    "inductive_loss",
]


def gradient_matching_loss(original_grads, synthetic_grads,
                           eps: float = 1e-8) -> Tensor:
    """Eq. (5): summed per-column cosine distance between gradient sets.

    ``original_grads`` are constants (gradients of the relay GNN loss on
    the original graph); ``synthetic_grads`` carry the graph through which
    the synthetic features are optimized (double backward).
    """
    detached = [as_tensor(g).detach() for g in original_grads]
    return gradient_cosine_distance(detached, list(synthetic_grads), eps=eps)


def structure_loss(mapping: Tensor | np.ndarray, embedding: Tensor,
                   batch: EdgeBatch) -> Tensor:
    """Eq. (8): link reconstruction from approximate embeddings ``MH'``.

    Binary cross-entropy of the inner products ``h_i . h_j`` of rows of
    ``h = M H'`` over a batch of positive and negative pairs.  ``mapping``
    is the ``(N, N')`` matrix ``M`` and ``embedding`` the ``(N', d)``
    matrix ``H'``.  Each logit is computed as ``M_i G M_j^T`` with the
    ``(N', N')`` Gram matrix ``G = H' H'^T``, i.e. ``rowsum((M[rows] G) *
    M[cols])``, so nothing of shape ``(N, d)`` is built: the cost is
    ``O(N'^2 d + |batch| N'^2)`` whatever the size of the original graph.
    """
    if len(batch) == 0:
        raise CondensationError("structure loss received an empty edge batch")
    m = as_tensor(mapping)
    h_syn = as_tensor(embedding)
    if m.ndim != 2 or m.shape[1] != h_syn.shape[0]:
        raise CondensationError(
            f"mapping shape {m.shape} incompatible with H' {h_syn.shape}")
    gram = matmul(h_syn, transpose(h_syn))
    head = matmul(gather_rows(m, batch.rows), gram)
    logits = tensor_sum(mul(head, gather_rows(m, batch.cols)), axis=1)
    return binary_cross_entropy_with_logits(logits, batch.targets)


def transductive_loss(original_embeddings: Tensor | np.ndarray,
                      synthetic_embeddings: Tensor | np.ndarray,
                      mapping: Tensor) -> Tensor:
    """Eq. (10): ``(1/N) || H - M H' ||_{2,1}``.

    ``H`` and ``H'`` are treated as constants (the relay GNN is frozen
    while ``M`` updates); only ``mapping`` carries gradients.
    """
    h = as_tensor(original_embeddings).detach()
    h_syn = as_tensor(synthetic_embeddings).detach()
    mapping = as_tensor(mapping)
    if mapping.shape != (h.shape[0], h_syn.shape[0]):
        raise CondensationError(
            f"mapping shape {mapping.shape} incompatible with H {h.shape} "
            f"and H' {h_syn.shape}")
    residual = sub(h, mapping @ h_syn)
    return l21_norm(residual) / Tensor(float(h.shape[0]))


def inductive_loss(support_original: Tensor | np.ndarray,
                   support_synthetic: Tensor) -> Tensor:
    """Eq. (12): ``(1/n) || H_sup - H'_sup ||_{2,1}``.

    ``support_original`` — support-node embeddings propagated through the
    original graph (constant); ``support_synthetic`` — the same nodes
    propagated through the synthetic graph via ``aM`` (differentiable in
    ``M``).
    """
    target = as_tensor(support_original).detach()
    predicted = as_tensor(support_synthetic)
    if target.shape != predicted.shape:
        raise CondensationError(
            f"support embedding shapes differ: {target.shape} vs {predicted.shape}")
    residual = sub(target, predicted)
    return l21_norm(residual) / Tensor(float(target.shape[0]))
