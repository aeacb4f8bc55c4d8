"""Sharded parallel condensation: partition → condense per shard → merge.

Condensation is the last whole-graph, single-process phase of the
pipeline — every reducer walks the entire training graph, and its
dominant dense operations (the ``(N, N')`` mapping products of MCond,
then the ``N'^2`` pair scores of the synthetic-adjacency generator) scale
super-linearly in the graph and budget sizes.  :class:`ShardedReducer`
breaks that ceiling:

1. **Partition** the original training graph into ``shards`` disjoint
   node sets with a registered strategy from
   :data:`repro.graph.partition.PARTITIONERS` (label-stratified BFS by
   default, so every shard sees the global class mix).
2. **Condense every shard independently** with any registered reducer,
   in ``workers`` parallel processes (serial in-process fallback for
   ``workers=1``).  Each shard receives a label-aware slice of the total
   budget and its own slice of the support (validation) nodes, routed to
   the shard holding most of their edges.
3. **Merge** the per-shard condensed graphs into one
   :class:`~repro.condense.base.CondensedGraph`: features/labels are
   concatenated, per-shard adjacencies become diagonal blocks, per-shard
   mappings are lifted back to original-graph row indices, and the
   original cut edges *between* shards are re-scored into the merged
   adjacency as ``M_i^T A_cut M_j`` — the mass an original cross-shard
   edge carries between the two synthetic endpoints its nodes map to.

With ``shards=1`` the pipeline degenerates to an exact pass-through: the
single shard is the whole graph in original order, apportionment returns
the full budget, and the merge is the identity — the output is
bit-identical to running the wrapped reducer directly (asserted by the
test suite).

The reducer registers as ``"sharded"`` in :data:`repro.registry.REDUCERS`
so it composes with ``api.condense``/``api.deploy``, ``repro condense
--shards K --workers N``, and the untouched serving path.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.condense.base import CondensedGraph, GraphReducer
from repro.errors import CondensationError
from repro.graph.datasets import InductiveSplit
from repro.graph.graph import Graph
from repro.graph.partition import check_partition, make_partitioner
from repro.registry import REDUCERS, make_reducer, register_reducer

__all__ = ["ShardTask", "ShardedReducer", "apportion_budget",
           "assign_support", "coalesce_shards", "merge_condensed",
           "SHARED_PROFILE_PARAMS"]

#: Effort-profile fields the sharded entry accepts on behalf of its inner
#: method; fields the inner reducer does not declare are dropped before
#: the inner factory is called (a coreset ignores ``match_steps``).
SHARED_PROFILE_PARAMS = ("outer_loops", "match_steps", "mapping_steps",
                         "relay_steps")


# ----------------------------------------------------------------------
# Budget apportionment and shard hygiene
# ----------------------------------------------------------------------
def apportion_budget(labeled_counts: np.ndarray, sizes: np.ndarray,
                     budget: int,
                     min_per_shard: int | np.ndarray) -> np.ndarray:
    """Split ``budget`` across shards proportionally to labeled mass.

    Every shard receives at least its ``min_per_shard`` floor of
    synthetic nodes (one per class *present in that shard* — a shard
    whose labeled nodes all share one class after coalescing needs a
    floor of 1, not one per global class; demanding the global floor can
    exceed the budget the shard was ever going to get) and at most
    ``size - 1`` (a reduction must shrink its shard).  ``min_per_shard``
    may be a scalar floor or a per-shard array.  The remainder is
    distributed one node at a time to the shard with the largest deficit
    against its proportional target — deterministic, exact, and
    label-aware: densely-labeled shards get proportionally more of the
    synthetic budget, mirroring the class-proportional allocation the
    reducers apply internally.
    """
    labeled_counts = np.asarray(labeled_counts, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    num_shards = sizes.size
    floors = np.broadcast_to(
        np.asarray(min_per_shard, dtype=np.int64), (num_shards,)).copy()
    if budget < int(floors.sum()):
        raise CondensationError(
            f"budget {budget} cannot cover the per-shard class floors "
            f"(total {int(floors.sum())} across {num_shards} shards); "
            "use fewer shards or a larger budget")
    caps = sizes - 1
    allocation = floors
    if np.any(caps < allocation):
        tight = int(np.flatnonzero(caps < allocation)[0])
        raise CondensationError(
            f"shard {tight} has only {sizes[tight]} nodes — too small to "
            f"host {int(allocation[tight])} synthetic nodes")
    if labeled_counts.sum() <= 0:
        raise CondensationError("no shard holds any labeled node")
    target = labeled_counts / labeled_counts.sum() * budget
    remaining = budget - int(allocation.sum())
    if remaining > int((caps - allocation).sum()):
        raise CondensationError(
            f"budget {budget} exceeds the sharded capacity "
            f"{int(caps.sum())}; use fewer shards or a smaller budget")
    for _ in range(remaining):
        deficit = np.where(allocation < caps, target - allocation, -np.inf)
        allocation[int(np.argmax(deficit))] += 1
    return allocation


def coalesce_shards(shards: list[np.ndarray], labeled_mask: np.ndarray,
                    min_size: int) -> list[np.ndarray]:
    """Merge shards too small (or label-starved) to condense on their own.

    A shard is viable when it holds more than ``min_size`` nodes (so a
    positive budget still shrinks it) and at least one labeled node.
    Non-viable shards — empty chunks from partitioning more shards than a
    class has nodes, singleton shards, all-unlabeled shards — are folded
    into the currently-smallest viable shard, preserving determinism and
    the exact-cover invariant.
    """
    def viable(shard: np.ndarray) -> bool:
        return shard.size > min_size and bool(labeled_mask[shard].any())

    kept = [np.asarray(s, dtype=np.int64) for s in shards]
    healthy = [s for s in kept if viable(s)]
    strays = [s for s in kept if not viable(s)]
    if not healthy:
        merged = np.sort(np.concatenate(kept))
        if not viable(merged):
            raise CondensationError(
                "graph cannot be sharded: no partition of it yields a "
                "shard with enough (labeled) nodes to condense")
        return [merged]
    for stray in strays:
        if stray.size == 0:
            continue
        smallest = int(np.argmin([s.size for s in healthy]))
        healthy[smallest] = np.sort(np.concatenate([healthy[smallest], stray]))
    return healthy


def assign_support(split: InductiveSplit,
                   shard_positions: list[np.ndarray]) -> list[np.ndarray]:
    """Route each support (validation) node to the shard it attaches to.

    A support node goes to the shard holding the largest share of its
    incremental-edge mass; edge-less support nodes are dealt round-robin.
    Every shard is guaranteed at least one support node whenever there
    are enough to go around (shards stripped of support would silently
    lose MCond's inductive loss).  Relative ``val_idx`` order is
    preserved inside each shard, so a single all-covering shard receives
    exactly the original support set.
    """
    val = split.val_idx
    num_shards = len(shard_positions)
    if val.size == 0 or num_shards == 1:
        return [val.copy() for _ in range(num_shards)]
    incident = split.full.cross_adjacency(val, split.train_idx)
    mass = np.column_stack([
        np.asarray(incident[:, positions].sum(axis=1)).ravel()
        for positions in shard_positions])
    assignment = np.argmax(mass, axis=1)
    detached = np.flatnonzero(mass.max(axis=1) <= 0)
    assignment[detached] = detached % num_shards
    # Re-seat support-less shards with the weakest-attached node of the
    # best-supplied shard (repeat until every shard has one or we run out).
    counts = np.bincount(assignment, minlength=num_shards)
    while (counts == 0).any() and (counts > 1).any():
        empty = int(np.argmin(counts))
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignment == donor)
        mover = members[int(np.argmin(mass[members, donor]))]
        assignment[mover] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return [val[assignment == shard] for shard in range(num_shards)]


# ----------------------------------------------------------------------
# Per-shard execution
# ----------------------------------------------------------------------
@dataclass
class ShardTask:
    """One shard's condensation job — picklable for worker processes."""

    index: int
    split: InductiveSplit
    budget: int
    method: str
    config: dict
    seed: int


def _reduce_shard(task: ShardTask) -> CondensedGraph:
    """Worker entry point: build the inner reducer and condense one shard."""
    reducer = make_reducer(task.method, seed=task.seed, **task.config)
    return reducer.reduce(task.split, task.budget)


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_condensed(graph: Graph, shard_positions: list[np.ndarray],
                    parts: list[CondensedGraph], *,
                    cut_scale: float = 1.0) -> CondensedGraph:
    """Merge per-shard condensed graphs into one :class:`CondensedGraph`.

    ``graph`` is the original training graph the shards partition;
    ``shard_positions[i]`` holds the original-graph row positions of
    shard ``i``; ``parts[i]`` is its condensation.  Per-shard adjacencies
    become diagonal blocks.  When every part carries a mapping, the cut
    edges between shards ``i`` and ``j`` are re-scored into the merged
    adjacency as ``cut_scale * M_i^T A_cut M_j`` and the mappings are
    lifted to original-graph rows and concatenated column-wise.  For a
    single all-covering shard the merge is the identity.
    """
    if not parts:
        raise CondensationError("merge needs at least one condensed shard")
    if len(parts) != len(shard_positions):
        raise CondensationError(
            f"{len(parts)} condensed shards for {len(shard_positions)} "
            "position sets")
    sizes = [part.num_nodes for part in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])

    adjacency = np.zeros((total, total), dtype=np.float64)
    for i, part in enumerate(parts):
        lo, hi = offsets[i], offsets[i + 1]
        adjacency[lo:hi, lo:hi] = part.adjacency

    has_mapping = all(part.mapping is not None for part in parts)
    if has_mapping and len(parts) > 1 and cut_scale != 0.0:
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                cut = graph.adjacency[shard_positions[i]][:, shard_positions[j]]
                if cut.nnz == 0:
                    continue
                block = cut_scale * np.asarray(
                    (parts[i].mapping.T @ cut @ parts[j].mapping).todense())
                adjacency[offsets[i]:offsets[i + 1],
                          offsets[j]:offsets[j + 1]] += block
                adjacency[offsets[j]:offsets[j + 1],
                          offsets[i]:offsets[i + 1]] += block.T

    mapping = None
    if has_mapping:
        rows, cols, data = [], [], []
        for i, part in enumerate(parts):
            coo = part.mapping.tocoo()
            rows.append(shard_positions[i][coo.row])
            cols.append(coo.col + offsets[i])
            data.append(coo.data)
        mapping = sp.coo_matrix(
            (np.concatenate(data),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(graph.num_nodes, total)).tocsr()

    return CondensedGraph(
        adjacency=adjacency,
        features=np.vstack([part.features for part in parts]),
        labels=np.concatenate([part.labels for part in parts]),
        mapping=mapping,
        method=parts[0].method)


# ----------------------------------------------------------------------
# The reducer
# ----------------------------------------------------------------------
class ShardedReducer(GraphReducer):
    """Run any registered reducer per shard, in parallel, and merge."""

    name = "sharded"

    def __init__(self, method: str = "mcond", shards: int = 2,
                 workers: int = 1, partitioner: str = "stratified",
                 cut_scale: float = 1.0, seed: int = 0,
                 inner_config: dict | None = None) -> None:
        if method.lower() == self.name:
            raise CondensationError("sharded condensation cannot nest itself")
        if shards < 1:
            raise CondensationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise CondensationError(f"workers must be >= 1, got {workers}")
        self.method = method
        self.shards = shards
        self.workers = workers
        self.partitioner = partitioner
        self.cut_scale = cut_scale
        self.seed = seed
        self.inner_config = dict(inner_config or {})
        #: Filled by :meth:`reduce`: shard sizes/budgets of the last run.
        self.last_plan: list[dict] | None = None

    # ------------------------------------------------------------------
    def _inner_config(self) -> dict:
        """Inner-method config with undeclared profile fields dropped."""
        entry = REDUCERS.get(self.method)
        config = dict(self.inner_config)
        for field in SHARED_PROFILE_PARAMS:
            if field in config and field not in entry.profile_params:
                config.pop(field)
        return config

    def reduce(self, split: InductiveSplit, budget: int) -> CondensedGraph:
        self._check_budget(split, budget)
        graph = split.original
        partition = make_partitioner(self.partitioner)
        shard_positions = partition(graph, self.shards, seed=self.seed)
        check_partition(shard_positions, graph.num_nodes)

        labeled_mask = np.zeros(graph.num_nodes, dtype=bool)
        labeled_mask[split.labeled_in_original] = True
        shard_positions = coalesce_shards(shard_positions, labeled_mask,
                                          min_size=split.num_classes)
        sizes = np.asarray([p.size for p in shard_positions], dtype=np.int64)
        labeled_counts = np.asarray(
            [int(labeled_mask[p].sum()) for p in shard_positions])
        # Per-shard floor: one synthetic node per class *present* in the
        # shard's labeled set.  A coalesced shard whose labeled nodes are
        # all one class must not be forced to host the global class
        # floor — that can exceed its budget (or the whole budget).
        class_floors = np.asarray([
            int(np.unique(graph.labels[p[labeled_mask[p]]]).size)
            for p in shard_positions], dtype=np.int64)
        budgets = apportion_budget(labeled_counts, sizes, budget,
                                   min_per_shard=class_floors)
        supports = assign_support(split, shard_positions)

        config = self._inner_config()
        tasks = [
            ShardTask(index=i,
                      split=self._shard_split(split, positions, supports[i], i),
                      budget=int(budgets[i]), method=self.method,
                      config=config, seed=self.seed + i)
            for i, positions in enumerate(shard_positions)]
        parts = self._run(tasks)
        self.last_plan = [
            {"shard": task.index, "nodes": int(sizes[task.index]),
             "labeled": int(labeled_counts[task.index]),
             "budget": task.budget, "support": int(supports[task.index].size)}
            for task in tasks]
        return merge_condensed(graph, shard_positions, parts,
                               cut_scale=self.cut_scale)

    # ------------------------------------------------------------------
    @staticmethod
    def _shard_split(split: InductiveSplit, positions: np.ndarray,
                     support: np.ndarray, index: int) -> InductiveSplit:
        """The shard-local :class:`InductiveSplit` a worker condenses.

        Shares the full graph (so ``num_classes`` and support attachment
        stay global) but restricts training/labeled nodes to the shard;
        the test set is empty — reducers never read it.
        """
        train = split.train_idx[positions]
        labeled = split.labeled_idx[np.isin(split.labeled_idx, train)]
        return InductiveSplit(
            split.full, train, support, np.empty(0, dtype=np.int64),
            labeled_idx=labeled, name=f"{split.name}[shard{index}]")

    def _run(self, tasks: list[ShardTask]) -> list[CondensedGraph]:
        if self.workers == 1 or len(tasks) == 1:
            return [_reduce_shard(task) for task in tasks]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with context.Pool(processes=min(self.workers, len(tasks))) as pool:
            return pool.map(_reduce_shard, tasks)


@register_reducer("sharded",
                  profile_params=SHARED_PROFILE_PARAMS,
                  description="partition, condense per shard in parallel "
                              "worker processes, and merge (wraps any "
                              "registered method)")
def _sharded_factory(seed: int = 0, inner: str = "mcond", shards: int = 2,
                     workers: int = 1, partitioner: str = "stratified",
                     cut_scale: float = 1.0, **inner_cfg) -> ShardedReducer:
    """Registry factory: ``inner`` names the wrapped reduction method
    (``method`` would collide with :func:`repro.registry.make_reducer`'s
    positional argument); ``inner_cfg`` is forwarded to it."""
    return ShardedReducer(method=inner, shards=shards, workers=workers,
                          partitioner=partitioner, cut_scale=cut_scale,
                          seed=seed, inner_config=inner_cfg)
