"""Coreset baselines: Random, Degree, Herding, K-Center.

Each baseline selects ``budget`` real training nodes (class-balanced, per
the paper) and keeps their induced subgraph.  Herding and K-Center operate
in a GNN latent space; we use the parameter-free SGC embedding ``Â^2 X`` by
default, matching the paper's use of latent node embeddings without tying
selection to a particular trained model.

Every coreset gets a one-hot selection mapping (see
:func:`repro.condense.base.selection_mapping`) so the shared inference
engine can attach inductive nodes to the reduced graph: an inductive node
keeps exactly its original edges into selected nodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CondensationError
from repro.condense.base import (
    CondensedGraph,
    GraphReducer,
    allocate_class_counts,
    selection_mapping,
)
from repro.graph.datasets import InductiveSplit
from repro.graph.graph import Graph
from repro.graph.ops import symmetric_normalize

__all__ = ["CoresetReducer", "RandomCoreset", "DegreeCoreset", "HerdingCoreset",
           "KCenterCoreset", "sgc_embeddings"]


def sgc_embeddings(graph: Graph, hops: int = 2) -> np.ndarray:
    """Parameter-free SGC latent space ``Â^hops X``."""
    operator = symmetric_normalize(graph.adjacency)
    h = graph.features
    for _ in range(hops):
        h = operator @ h
    return h


class CoresetReducer(GraphReducer):
    """Shared machinery: class-balanced budgets, subgraph assembly."""

    name = "coreset"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # Subclasses implement per-class selection.
    def _select_in_class(self, candidates: np.ndarray, count: int,
                         graph: Graph, embeddings: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def reduce(self, split: InductiveSplit, budget: int) -> CondensedGraph:
        self._check_budget(split, budget)
        graph = split.original
        if graph.labels is None:
            raise CondensationError("coreset selection requires labels")
        labeled = split.labeled_in_original
        counts = allocate_class_counts(graph.labels[labeled], budget,
                                       split.num_classes)
        embeddings = self._embeddings(graph)
        rng = np.random.default_rng(self.seed)
        chosen: list[np.ndarray] = []
        for cls, count in enumerate(counts):
            if count == 0:
                continue
            candidates = labeled[graph.labels[labeled] == cls]
            if candidates.size == 0:
                raise CondensationError(f"class {cls} has no labeled candidates")
            take = min(int(count), candidates.size)
            chosen.append(self._select_in_class(candidates, take, graph,
                                                embeddings, rng))
        selected = np.concatenate(chosen)
        sub = graph.subgraph(selected)
        return CondensedGraph(
            adjacency=sub.adjacency.toarray(),
            features=sub.features,
            labels=sub.labels,
            mapping=selection_mapping(selected, graph.num_nodes),
            method=self.name)

    def _embeddings(self, graph: Graph) -> np.ndarray:
        return sgc_embeddings(graph)


class RandomCoreset(CoresetReducer):
    """Uniform class-balanced random selection."""

    name = "random"

    def _select_in_class(self, candidates, count, graph, embeddings, rng):
        return rng.choice(candidates, size=count, replace=False)


class DegreeCoreset(CoresetReducer):
    """Highest-degree nodes per class."""

    name = "degree"

    def _select_in_class(self, candidates, count, graph, embeddings, rng):
        degrees = graph.degrees()[candidates]
        order = np.argsort(-degrees, kind="stable")
        return candidates[order[:count]]


class HerdingCoreset(CoresetReducer):
    """Welling herding: greedily track the class-mean embedding.

    Repeatedly picks the sample whose addition keeps the running selection
    mean closest to the full class mean — the standard continual-learning
    exemplar selector cited by the paper.
    """

    name = "herding"

    def _select_in_class(self, candidates, count, graph, embeddings, rng):
        feats = embeddings[candidates]
        mean = feats.mean(axis=0)
        selected: list[int] = []
        running = np.zeros_like(mean)
        available = np.ones(candidates.size, dtype=bool)
        for step in range(count):
            # Choose x minimizing ||mean - (running + x) / (k+1)||.
            target = mean * (step + 1) - running
            distances = np.linalg.norm(feats - target, axis=1)
            distances[~available] = np.inf
            pick = int(np.argmin(distances))
            available[pick] = False
            running += feats[pick]
            selected.append(pick)
        return candidates[np.asarray(selected, dtype=np.int64)]


class KCenterCoreset(CoresetReducer):
    """Greedy k-center (farthest-first traversal) in the latent space."""

    name = "kcenter"

    def _select_in_class(self, candidates, count, graph, embeddings, rng):
        feats = embeddings[candidates]
        center = feats.mean(axis=0)
        first = int(np.argmin(np.linalg.norm(feats - center, axis=1)))
        selected = [first]
        distances = np.linalg.norm(feats - feats[first], axis=1)
        for _ in range(1, count):
            pick = int(np.argmax(distances))
            selected.append(pick)
            distances = np.minimum(distances,
                                   np.linalg.norm(feats - feats[pick], axis=1))
        return candidates[np.asarray(selected, dtype=np.int64)]

