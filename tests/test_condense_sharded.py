"""Sharded condensation: apportionment, merging, parity, and accuracy."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.condense import CondensedGraph, make_reducer
from repro.condense.sharded import (
    ShardedReducer,
    apportion_budget,
    assign_support,
    coalesce_shards,
    merge_condensed,
)
from repro.errors import CondensationError

# Fast inner configuration shared by every MCond-based test here.
FAST_MCOND = {"outer_loops": 1, "match_steps": 2, "mapping_steps": 3,
              "relay_steps": 1, "adjacency_pretrain_steps": 10}


def _assert_bit_identical(a: CondensedGraph, b: CondensedGraph):
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert (a.mapping is None) == (b.mapping is None)
    if a.mapping is not None:
        assert np.array_equal(a.mapping.toarray(), b.mapping.toarray())
    assert a.method == b.method


class TestApportionBudget:
    def test_exact_and_proportional(self):
        allocation = apportion_budget(np.array([30, 10]),
                                      np.array([100, 100]), 20, 2)
        assert allocation.sum() == 20
        assert allocation[0] > allocation[1]
        assert allocation.min() >= 2

    def test_floor_respected_for_starved_shards(self):
        allocation = apportion_budget(np.array([99, 1]),
                                      np.array([50, 50]), 10, 3)
        assert allocation.tolist() == [7, 3]

    def test_cap_at_shard_size(self):
        allocation = apportion_budget(np.array([10, 10]),
                                      np.array([4, 100]), 20, 2)
        assert allocation[0] <= 3
        assert allocation.sum() == 20

    def test_budget_below_floor_raises(self):
        with pytest.raises(CondensationError, match="fewer shards"):
            apportion_budget(np.array([5, 5]), np.array([50, 50]), 3, 2)

    def test_budget_above_capacity_raises(self):
        with pytest.raises(CondensationError, match="capacity"):
            apportion_budget(np.array([5, 5]), np.array([3, 3]), 5, 1)

    def test_no_labeled_nodes_raises(self):
        with pytest.raises(CondensationError, match="labeled"):
            apportion_budget(np.array([0, 0]), np.array([50, 50]), 10, 2)

    def test_single_shard_gets_everything(self):
        assert apportion_budget(np.array([7]), np.array([50]), 13,
                                3).tolist() == [13]


class TestSingleClassShardApportionment:
    """Regression: a shard whose labeled nodes are all one class must get
    a floor of 1, not one per *global* class — the global floor can
    exceed the budget such a shard (or the whole run) was ever granted."""

    def test_per_shard_floor_array(self):
        # 3 global classes, shard 1 single-class: old floor 3+3=6 > 5
        allocation = apportion_budget(np.array([20, 4]), np.array([50, 40]),
                                      5, np.array([3, 1]))
        assert allocation.sum() == 5
        assert allocation[0] >= 3
        assert allocation[1] >= 1

    def test_scalar_floor_still_supported(self):
        allocation = apportion_budget(np.array([10, 10]),
                                      np.array([50, 50]), 8, 2)
        assert allocation.sum() == 8
        assert allocation.min() >= 2

    def test_floor_sum_over_budget_raises(self):
        with pytest.raises(CondensationError, match="fewer shards"):
            apportion_budget(np.array([5, 5]), np.array([50, 50]), 3,
                             np.array([3, 1]))

    def test_single_class_shard_end_to_end(self, tiny_split, monkeypatch):
        """A partition that isolates one class in its own shard condenses
        with a budget below shards * num_classes."""
        from repro.graph.partition import PARTITIONERS

        labels = tiny_split.original.labels
        lone = int(labels[0])

        def _single_class(graph, shards, seed=0):
            assert shards == 2
            members = np.flatnonzero(graph.labels == lone)
            rest = np.flatnonzero(graph.labels != lone)
            return [rest, members]

        monkeypatch.setitem(PARTITIONERS, "single-class-test",
                            (_single_class, "test-only: isolate one class"))

        reducer = make_reducer("sharded", inner="random", shards=2,
                               partitioner="single-class-test", seed=0)
        # 4 < 2 shards * 3 classes: the old global floor raised here
        condensed = reducer.reduce(tiny_split, 4)
        assert condensed.num_nodes == 4
        plan = reducer.last_plan
        assert len(plan) == 2
        single = [entry for entry in plan
                  if entry["shard"] == 1][0]
        assert single["budget"] >= 1
        # the single-class shard only carries its own class
        assert set(np.unique(condensed.labels)) <= set(np.unique(labels))


class TestCoalesceShards:
    labeled = np.zeros(12, dtype=bool)
    labeled[[0, 1, 6, 7]] = True

    def test_empty_shard_folded_into_smallest(self):
        shards = [np.arange(0, 6), np.arange(6, 12), np.empty(0, np.int64)]
        merged = coalesce_shards(shards, self.labeled, min_size=2)
        assert len(merged) == 2
        np.testing.assert_array_equal(np.sort(np.concatenate(merged)),
                                      np.arange(12))

    def test_singleton_shard_folded(self):
        shards = [np.arange(0, 6), np.arange(7, 12), np.array([6])]
        merged = coalesce_shards(shards, self.labeled, min_size=2)
        assert len(merged) == 2
        assert all(s.size > 2 for s in merged)

    def test_unlabeled_shard_folded(self):
        shards = [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12)]
        labeled = np.zeros(12, dtype=bool)
        labeled[[0, 5]] = True               # shard 3 has no labeled nodes
        merged = coalesce_shards(shards, labeled, min_size=2)
        assert len(merged) == 2

    def test_all_invalid_collapses_to_one(self):
        shards = [np.array([0]), np.array([1]), np.arange(2, 12)]
        labeled = np.zeros(12, dtype=bool)
        labeled[0] = True                    # only the singleton is labeled
        merged = coalesce_shards(shards, labeled, min_size=10)
        assert len(merged) == 1
        assert merged[0].size == 12

    def test_unshardable_graph_raises(self):
        with pytest.raises(CondensationError, match="cannot be sharded"):
            coalesce_shards([np.arange(3)], np.zeros(3, dtype=bool),
                            min_size=2)


class TestAssignSupport:
    def test_single_shard_preserves_val_order(self, tiny_split):
        supports = assign_support(tiny_split, [np.arange(
            tiny_split.original.num_nodes)])
        assert len(supports) == 1
        np.testing.assert_array_equal(supports[0], tiny_split.val_idx)

    def test_partition_of_val_nodes(self, tiny_split):
        n = tiny_split.original.num_nodes
        shards = [np.arange(0, n // 2), np.arange(n // 2, n)]
        supports = assign_support(tiny_split, shards)
        combined = np.concatenate(supports)
        assert combined.size == tiny_split.val_idx.size
        assert np.array_equal(np.sort(combined), np.sort(tiny_split.val_idx))
        assert all(s.size > 0 for s in supports)

    def test_empty_val_set(self, tiny_split):
        from repro.graph.datasets import InductiveSplit
        bare = InductiveSplit(tiny_split.full, tiny_split.train_idx,
                              np.empty(0, np.int64), tiny_split.test_idx,
                              labeled_idx=tiny_split.labeled_idx)
        supports = assign_support(bare, [np.arange(3), np.arange(3, 6)])
        assert all(s.size == 0 for s in supports)


class TestMergeCondensed:
    def _parts(self, rng):
        left = CondensedGraph(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            features=rng.normal(size=(2, 3)), labels=np.array([0, 1]),
            mapping=sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0],
                                            [0.5, 0.5]])),
            method="random")
        right = CondensedGraph(
            adjacency=np.array([[0.0]]), features=rng.normal(size=(1, 3)),
            labels=np.array([0]),
            mapping=sp.csr_matrix(np.array([[1.0], [1.0]])),
            method="random")
        return left, right

    def test_block_structure_and_lifted_mapping(self, rng, path_graph):
        left, right = self._parts(rng)
        positions = [np.array([0, 1, 2]), np.array([3, 4])]
        merged = merge_condensed(path_graph, positions, [left, right])
        assert merged.num_nodes == 3
        np.testing.assert_array_equal(merged.adjacency[:2, :2], left.adjacency)
        assert merged.adjacency[2, 2] == 0.0
        # path edge 2-3 crosses the cut: M_l^T A_cut M_r puts its mass on
        # (left synthetic 0/1 via node 2's 0.5/0.5 row) x (right synthetic 0)
        np.testing.assert_allclose(merged.adjacency[:2, 2], [0.5, 0.5])
        np.testing.assert_allclose(merged.adjacency[2, :2], [0.5, 0.5])
        assert merged.mapping.shape == (5, 3)
        dense = merged.mapping.toarray()
        np.testing.assert_array_equal(dense[:3, :2], left.mapping.toarray())
        np.testing.assert_array_equal(dense[3:, 2:], right.mapping.toarray())

    def test_cut_scale_zero_keeps_blocks_disjoint(self, rng, path_graph):
        left, right = self._parts(rng)
        positions = [np.array([0, 1, 2]), np.array([3, 4])]
        merged = merge_condensed(path_graph, positions, [left, right],
                                 cut_scale=0.0)
        assert merged.adjacency[:2, 2:].sum() == 0.0

    def test_single_part_is_identity(self, rng, path_graph):
        left, _ = self._parts(rng)
        merged = merge_condensed(path_graph, [np.arange(5)], [left])
        # only shapes involving the mapping change: rows lift to 5 == 3? no —
        # mapping rows follow the original graph, here 5 > 3 rows
        np.testing.assert_array_equal(merged.adjacency, left.adjacency)
        np.testing.assert_array_equal(merged.features, left.features)

    def test_missing_mapping_disables_cut_rescoring(self, rng, path_graph):
        left, right = self._parts(rng)
        bare = CondensedGraph(adjacency=right.adjacency,
                              features=right.features, labels=right.labels,
                              mapping=None, method="gcond")
        merged = merge_condensed(path_graph,
                                 [np.array([0, 1, 2]), np.array([3, 4])],
                                 [left, bare])
        assert merged.mapping is None
        assert merged.adjacency[:2, 2:].sum() == 0.0

    def test_empty_parts_rejected(self, path_graph):
        with pytest.raises(CondensationError):
            merge_condensed(path_graph, [], [])


class TestShardedReducer:
    def test_shards_one_is_bit_identical_to_direct_mcond(self, tiny_split):
        direct = make_reducer("mcond", seed=5, **FAST_MCOND).reduce(
            tiny_split, 9)
        sharded = make_reducer("sharded", seed=5, inner="mcond", shards=1,
                               **FAST_MCOND).reduce(tiny_split, 9)
        _assert_bit_identical(direct, sharded)

    def test_shards_one_is_bit_identical_to_direct_coreset(self, tiny_split):
        direct = make_reducer("herding", seed=3).reduce(tiny_split, 9)
        sharded = ShardedReducer(method="herding", shards=1, seed=3).reduce(
            tiny_split, 9)
        _assert_bit_identical(direct, sharded)

    @pytest.mark.parametrize("partitioner", ("stratified", "degree"))
    def test_merged_output_invariants(self, tiny_split, partitioner):
        reducer = ShardedReducer(method="mcond", shards=2, seed=0,
                                 partitioner=partitioner,
                                 inner_config=FAST_MCOND)
        condensed = reducer.reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert condensed.supports_attachment()
        assert condensed.mapping.shape == (tiny_split.original.num_nodes, 9)
        assert np.allclose(condensed.adjacency, condensed.adjacency.T)
        assert np.unique(condensed.labels).size == tiny_split.num_classes
        assert len(reducer.last_plan) == 2
        assert sum(s["budget"] for s in reducer.last_plan) == 9

    def test_parallel_workers_match_serial(self, tiny_split):
        serial = ShardedReducer(method="mcond", shards=2, workers=1, seed=1,
                                inner_config=FAST_MCOND).reduce(tiny_split, 9)
        parallel = ShardedReducer(method="mcond", shards=2, workers=2, seed=1,
                                  inner_config=FAST_MCOND).reduce(tiny_split, 9)
        _assert_bit_identical(serial, parallel)

    def test_mapless_inner_method_merges_without_mapping(self, tiny_split):
        config = {"outer_loops": 1, "match_steps": 2,
                  "adjacency_pretrain_steps": 10}
        condensed = ShardedReducer(method="doscond", shards=2, seed=0,
                                   inner_config=config).reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert not condensed.supports_attachment()

    def test_profile_fields_dropped_for_coreset_inner(self, tiny_split):
        # Coresets accept none of the effort-profile fields; the wrapper
        # must drop them instead of crashing the factory.
        reducer = ShardedReducer(
            method="random", shards=2, seed=0,
            inner_config={"outer_loops": 2, "match_steps": 8,
                          "mapping_steps": 20, "relay_steps": 3})
        condensed = reducer.reduce(tiny_split, 9)
        assert condensed.num_nodes == 9

    def test_serving_path_composes(self, tiny_split):
        from repro.inference.engine import InductiveServer
        from repro.nn.models import make_model
        from repro.nn.trainer import TrainConfig, train_node_classifier

        condensed = ShardedReducer(method="mcond", shards=2, seed=0,
                                   inner_config=FAST_MCOND).reduce(
            tiny_split, 9)
        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0)
        train_node_classifier(
            model, condensed.normalized_adjacency(), condensed.features,
            condensed.labels, np.arange(condensed.num_nodes),
            config=TrainConfig(epochs=5, lr=0.05, patience=5))
        server = InductiveServer(model, "synthetic", tiny_split.original,
                                 condensed)
        batch = tiny_split.incremental_batch("test")
        logits, _, _ = server.serve_batch(batch, "node")
        assert logits.shape == (batch.num_nodes, tiny_split.num_classes)

    def test_nested_sharding_rejected(self):
        with pytest.raises(CondensationError, match="nest"):
            ShardedReducer(method="sharded")

    def test_invalid_shards_and_workers_rejected(self):
        with pytest.raises(CondensationError):
            ShardedReducer(shards=0)
        with pytest.raises(CondensationError):
            ShardedReducer(workers=0)

    def test_budget_too_small_for_shard_count(self, tiny_split):
        reducer = ShardedReducer(method="random", shards=4, seed=0)
        with pytest.raises(CondensationError, match="fewer shards"):
            reducer.reduce(tiny_split, 9)   # floor 3 classes x 4 shards > 9


class TestShardedAccuracy:
    def test_two_shards_hold_whole_graph_accuracy(self):
        """``sharded(shards=2)`` stays within 2 accuracy points of the
        whole-graph ``mcond`` it wraps: pubmed-sim, quick profile, budget
        30, seed 0, the full test batch served in graph mode."""
        from repro.experiments import QUICK, ExperimentContext, prepare_dataset

        context = ExperimentContext(prepare_dataset("pubmed-sim", seed=0),
                                    QUICK)
        inner = context.reducer_config("mcond")
        reducers = {
            "whole": make_reducer("mcond", seed=0, **inner),
            "sharded": make_reducer("sharded", seed=0, inner="mcond",
                                    shards=2, **inner),
        }
        accuracy = {}
        condensed = {}
        for name, reducer in reducers.items():
            condensed[name] = reducer.reduce(context.prepared.split, 30)
            model = context.train("synthetic", condensed=condensed[name],
                                  validate_deployment="synthetic", seed=0)
            accuracy[name] = context.evaluate(
                model, "synthetic", condensed[name],
                batch_mode="graph").accuracy
        assert accuracy["sharded"] >= accuracy["whole"] - 0.02
