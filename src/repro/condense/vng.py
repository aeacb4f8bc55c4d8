"""Virtual Node Graph (VNG) baseline — Si et al., ICLR 2023 [35].

VNG compresses the original graph for *inference only*: it clusters
original nodes with weighted k-means (weights = node degrees), places one
virtual node per cluster, and fits the virtual adjacency by minimizing the
GNN forward-pass reconstruction error

    ``min_{A_v} || P A_v X_v  -  Â X ||_F``

where ``P`` is the (hard) assignment matrix and ``X_v`` the cluster
centroids.  The mapping from original to virtual nodes is the one-to-one
(per node) cluster assignment, which is exactly the "implicit one-to-one
mapping" limitation MCond's one-to-many mapping addresses.

The fitted ``A_v`` is dense — the paper observes VNG's dense adjacency
costs more at inference time than MCond's sparsified graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.condense.base import CondensedGraph, GraphReducer, allocate_class_counts
from repro.graph.datasets import InductiveSplit
from repro.graph.ops import symmetric_normalize

__all__ = ["VngReducer", "weighted_kmeans"]


def weighted_kmeans(points: np.ndarray, weights: np.ndarray, k: int,
                    rng: np.random.Generator,
                    iters: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with per-point weights.

    Returns ``(assignment, centroids)``.  Empty clusters are reseeded from
    the farthest points, so exactly ``k`` clusters come back.
    """
    n = points.shape[0]
    if k <= 0 or k > n:
        raise CondensationError(f"k must be in [1, {n}], got {k}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise CondensationError(f"weights shape {weights.shape} != ({n},)")
    if (weights < 0).any():
        raise CondensationError("weights must be non-negative")
    weights = np.maximum(weights, 1e-12)

    # k-means++ style seeding (distance-proportional).
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.linalg.norm(points - centroids[0], axis=1) ** 2
    for j in range(1, k):
        probs = closest * weights
        total = probs.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=probs / total))
        centroids[j] = points[pick]
        closest = np.minimum(closest,
                             np.linalg.norm(points - centroids[j], axis=1) ** 2)

    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = distances.argmin(axis=1)
        converged = np.array_equal(new_assignment, assignment)
        assignment = new_assignment
        for j in range(k):
            members = assignment == j
            if not members.any():
                # Reseed an empty cluster at the currently worst-fit point.
                worst = int(np.argmax(distances[np.arange(n), assignment]))
                centroids[j] = points[worst]
                assignment[worst] = j
                continue
            w = weights[members][:, None]
            centroids[j] = (points[members] * w).sum(axis=0) / w.sum()
        if converged:
            break
    return assignment, centroids


class VngReducer(GraphReducer):
    """VNG: per-class weighted k-means + forward-pass adjacency fitting."""

    name = "vng"

    def __init__(self, seed: int = 0, kmeans_iters: int = 25,
                 ridge: float = 1e-3) -> None:
        self.seed = seed
        self.kmeans_iters = kmeans_iters
        self.ridge = ridge

    def reduce(self, split: InductiveSplit, budget: int) -> CondensedGraph:
        self._check_budget(split, budget)
        graph = split.original
        if graph.labels is None:
            raise CondensationError("VNG requires labels")
        rng = np.random.default_rng(self.seed)
        counts = allocate_class_counts(graph.labels[split.labeled_in_original],
                                       budget, split.num_classes)
        degrees = np.maximum(graph.degrees(), 1.0)

        num_virtual = int(counts.sum())
        assignment = np.full(graph.num_nodes, -1, dtype=np.int64)
        centroids = np.zeros((num_virtual, graph.feature_dim))
        labels_v = np.zeros(num_virtual, dtype=np.int64)
        offset = 0
        for cls, count in enumerate(counts):
            if count == 0:
                continue
            members = np.flatnonzero(graph.labels == cls)
            if members.size == 0:
                raise CondensationError(f"class {cls} has no nodes to cluster")
            take = min(int(count), members.size)
            local_assign, local_centroids = weighted_kmeans(
                graph.features[members], degrees[members], take, rng,
                iters=self.kmeans_iters)
            assignment[members] = offset + local_assign
            centroids[offset:offset + take] = local_centroids
            labels_v[offset:offset + take] = cls
            offset += take
        centroids = centroids[:offset]
        labels_v = labels_v[:offset]
        # Unlabeled-class leftovers (shouldn't happen with full coverage).
        if (assignment < 0).any():
            raise CondensationError("some nodes were never assigned a cluster")

        mapping = sp.csr_matrix(
            (np.ones(graph.num_nodes),
             (np.arange(graph.num_nodes), assignment)),
            shape=(graph.num_nodes, offset))

        adjacency = self._fit_adjacency(graph, mapping, centroids)
        return CondensedGraph(adjacency=adjacency, features=centroids,
                              labels=labels_v, mapping=mapping,
                              method=self.name)

    def _fit_adjacency(self, graph, mapping: sp.csr_matrix,
                       centroids: np.ndarray) -> np.ndarray:
        """Least-squares fit of ``A_v``: ``P A_v X_v ~= Â X`` (ridge-regularized).

        Solved in two closed-form steps: left-multiply by the weighted
        pseudo-inverse of ``P`` (a per-cluster average), then solve the
        right system against ``X_v`` with ridge regression.
        """
        operator = symmetric_normalize(graph.adjacency)
        target = operator @ graph.features            # (N, d)
        cluster_sizes = np.asarray(mapping.sum(axis=0)).reshape(-1)
        averaged = (mapping.T @ target) / cluster_sizes[:, None]   # (k, d)
        gram = centroids @ centroids.T                # (k, k)
        gram += self.ridge * np.eye(gram.shape[0])
        solution = np.linalg.solve(gram, centroids @ averaged.T).T  # (k, k)
        # Symmetrize and clip: virtual adjacencies are non-negative weights.
        symmetric = 0.5 * (solution + solution.T)
        return np.maximum(symmetric, 0.0)
