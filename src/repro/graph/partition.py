"""Deterministic, seeded graph partitioners for sharded condensation.

The sharded offline pipeline (:mod:`repro.condense.sharded`) splits the
original training graph into disjoint node shards, condenses every shard
independently, and merges the per-shard synthetic graphs.  Partition
quality governs both sides of that trade: balanced shards keep the
per-worker wall-clock even, while label- and locality-aware shards keep
per-shard condensation faithful to the class structure the reducers
preserve.

Two strategies ship in the :data:`PARTITIONERS` table:

- ``stratified`` — label-stratified BFS chunking.  Nodes are ordered by a
  seeded breadth-first traversal (so contiguous chunks are locally
  connected), then each class's nodes are dealt to shards in contiguous
  chunks, keeping every shard's label histogram close to the global one.
- ``degree`` — degree-balanced greedy packing (LPT): nodes are assigned
  in decreasing-degree order to the currently lightest shard, balancing
  *edge* work across workers on skewed-degree graphs.

Every partitioner is a callable ``fn(graph, num_shards, seed=0)``
returning a list of ``num_shards`` sorted, disjoint ``int64`` index
arrays that exactly cover ``range(graph.num_nodes)`` —
:func:`check_partition` asserts that contract and is shared by the
pipeline and the test suite.  Given the same inputs and seed, every
strategy returns the same shards on every run and platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError, RegistryError
from repro.graph.graph import Graph

__all__ = [
    "PARTITIONERS",
    "make_partitioner",
    "check_partition",
    "bfs_order",
    "stratified_partition",
    "degree_balanced_partition",
]

#: Signature every partitioner implements.
Partitioner = Callable[..., "list[np.ndarray]"]


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------
def check_partition(shards: list[np.ndarray], num_nodes: int) -> None:
    """Validate the partition contract; raises :class:`GraphError`.

    Every node in ``range(num_nodes)`` must appear in exactly one shard,
    and every shard must be a sorted 1-D integer array.  Empty shards are
    legal (a caller-side concern — the sharded reducer coalesces them).
    """
    seen = np.zeros(num_nodes, dtype=np.int64)
    for index, shard in enumerate(shards):
        arr = np.asarray(shard)
        if arr.ndim != 1:
            raise GraphError(f"shard {index} is not 1-D: shape {arr.shape}")
        if arr.size == 0:
            continue
        if not np.issubdtype(arr.dtype, np.integer):
            raise GraphError(f"shard {index} has non-integer dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= num_nodes:
            raise GraphError(
                f"shard {index} holds out-of-range nodes "
                f"(valid range [0, {num_nodes}))")
        if not np.all(np.diff(arr) > 0):
            raise GraphError(f"shard {index} is not sorted and duplicate-free")
        np.add.at(seen, arr, 1)
    uncovered = int((seen == 0).sum())
    duplicated = int((seen > 1).sum())
    if uncovered or duplicated:
        raise GraphError(
            f"partition is not exact: {uncovered} nodes uncovered, "
            f"{duplicated} nodes in multiple shards")


def _validate_args(graph: Graph, num_shards: int) -> None:
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1, got {num_shards}")
    if graph.num_nodes == 0:
        raise GraphError("cannot partition an empty graph")


# ----------------------------------------------------------------------
# BFS ordering (shared by the stratified strategy)
# ----------------------------------------------------------------------
def bfs_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """A seeded breadth-first ordering covering every component.

    Component roots are drawn from a seeded permutation, so the ordering
    is deterministic for a given ``(graph, seed)`` while still varying
    across seeds.  Consecutive positions in the returned array are
    neighbors whenever the graph allows it, which is what makes
    contiguous chunks of this ordering locality-preserving shards.
    """
    n = graph.num_nodes
    candidates = np.random.default_rng(seed).permutation(n)
    visited = np.zeros(n, dtype=bool)
    order: list[np.ndarray] = []
    for root in candidates:
        if visited[root]:
            continue
        component = sp.csgraph.breadth_first_order(
            graph.adjacency, int(root), directed=False,
            return_predecessors=False)
        component = np.asarray(component, dtype=np.int64)
        fresh = component[~visited[component]]
        visited[fresh] = True
        order.append(fresh)
    return np.concatenate(order)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def stratified_partition(graph: Graph, num_shards: int, *,
                         seed: int = 0) -> list[np.ndarray]:
    """Label-stratified BFS partition.

    Each class's nodes, ordered by the seeded BFS traversal, are split
    into ``num_shards`` contiguous chunks; chunk ``k`` of class ``c``
    lands in shard ``(k + c) % num_shards``.  The rotation spreads the
    slightly-larger leading chunks across shards, so shard sizes stay
    balanced even when class sizes are not multiples of ``num_shards``.
    Unlabeled graphs degrade gracefully to plain BFS chunking.
    """
    _validate_args(graph, num_shards)
    labels = (graph.labels if graph.labels is not None
              else np.zeros(graph.num_nodes, dtype=np.int64))
    order = bfs_order(graph, seed=seed)
    rank = np.empty(graph.num_nodes, dtype=np.int64)
    rank[order] = np.arange(graph.num_nodes)
    shards: list[list[np.ndarray]] = [[] for _ in range(num_shards)]
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[np.argsort(rank[members], kind="stable")]
        for chunk_index, chunk in enumerate(np.array_split(members, num_shards)):
            shards[(chunk_index + int(cls)) % num_shards].append(chunk)
    return [np.sort(np.concatenate(parts)) if parts else
            np.empty(0, dtype=np.int64) for parts in shards]


def degree_balanced_partition(graph: Graph, num_shards: int, *,
                              seed: int = 0) -> list[np.ndarray]:
    """Degree-balanced LPT partition.

    Nodes are assigned in decreasing-degree order (ties broken by node
    id, so the result is deterministic and ``seed`` is accepted only for
    interface symmetry) to the shard with the lightest load, where load
    counts ``degree + 1`` per node — the ``+ 1`` keeps zero-degree nodes
    from piling onto a single shard.
    """
    _validate_args(graph, num_shards)
    del seed  # deterministic regardless of seed; accepted for uniformity
    degrees = graph.degrees()
    order = np.argsort(-degrees, kind="stable")
    loads = np.zeros(num_shards, dtype=np.float64)
    assignment = np.empty(graph.num_nodes, dtype=np.int64)
    for node in order:
        shard = int(np.argmin(loads))
        assignment[node] = shard
        loads[shard] += degrees[node] + 1.0
    return [np.flatnonzero(assignment == shard)
            for shard in range(num_shards)]


#: The partitioners: name -> (partitioner, the one-line description
#: ``repro list`` prints).
PARTITIONERS = {
    "stratified": (stratified_partition, "label-stratified BFS chunking "
                   "(balanced labels + locality)"),
    "degree": (degree_balanced_partition, "degree-balanced greedy packing "
               "(even edge work per shard)"),
}


def make_partitioner(name: str) -> Partitioner:
    """Resolve a partitioner by name."""
    if name not in PARTITIONERS:
        raise RegistryError(
            f"unknown graph partitioner {name!r}; "
            f"available: {', '.join(sorted(PARTITIONERS))}")
    return PARTITIONERS[name][0]
