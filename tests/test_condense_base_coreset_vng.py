"""Condensed-graph container, class allocation, coresets, VNG."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.condense import (
    CondensedGraph,
    VngReducer,
    allocate_class_counts,
    make_reducer,
    selection_mapping,
    sgc_embeddings,
    weighted_kmeans,
)

CORESETS = ("random", "degree", "herding", "kcenter")


class TestCondensedGraph:
    def test_validation_square(self):
        with pytest.raises(CondensationError):
            CondensedGraph(np.ones((2, 3)), np.ones((2, 2)), np.zeros(2, dtype=int))

    def test_validation_row_counts(self):
        with pytest.raises(CondensationError):
            CondensedGraph(np.eye(2), np.ones((3, 2)), np.zeros(2, dtype=int))

    def test_mapping_column_check(self):
        with pytest.raises(CondensationError):
            CondensedGraph(np.eye(2), np.ones((2, 2)), np.zeros(2, dtype=int),
                           mapping=sp.csr_matrix(np.ones((5, 3))))

    def test_normalized_adjacency_symmetric(self, tiny_condensed):
        norm = tiny_condensed.normalized_adjacency()
        assert np.allclose(norm, norm.T)

    def test_storage_accounting_includes_mapping(self, tiny_condensed):
        with_mapping = tiny_condensed.storage_bytes(include_mapping=True)
        without = tiny_condensed.storage_bytes(include_mapping=False)
        assert with_mapping > without

    def test_supports_attachment(self, tiny_condensed):
        assert tiny_condensed.supports_attachment()
        no_map = CondensedGraph(np.eye(2), np.ones((2, 2)),
                                np.zeros(2, dtype=int))
        assert not no_map.supports_attachment()


class TestAllocation:
    def test_proportional_allocation(self):
        labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
        counts = allocate_class_counts(labels, 10, 3)
        assert counts.sum() == 10
        assert counts[0] >= counts[1] >= counts[2] >= 1

    def test_minimum_one_per_class(self):
        labels = np.array([0] * 98 + [1] * 1 + [2] * 1)
        counts = allocate_class_counts(labels, 5, 3)
        assert (counts[counts > 0] >= 1).all()
        assert counts.sum() == 5

    def test_budget_below_class_count_rejected(self):
        with pytest.raises(CondensationError):
            allocate_class_counts(np.array([0, 1, 2]), 2, 3)

    def test_absent_class_gets_zero(self):
        counts = allocate_class_counts(np.array([0, 0, 2]), 4, 3)
        assert counts[1] == 0

    def test_selection_mapping_one_hot(self):
        mapping = selection_mapping(np.array([3, 1]), 5)
        dense = mapping.toarray()
        assert dense.shape == (5, 2)
        assert dense[3, 0] == 1.0 and dense[1, 1] == 1.0
        assert dense.sum() == 2.0


class TestCoresets:
    @pytest.mark.parametrize("name", CORESETS)
    def test_budget_respected(self, name, tiny_split):
        condensed = make_reducer(name, seed=0).reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert condensed.method == name

    @pytest.mark.parametrize("name", CORESETS)
    def test_class_coverage(self, name, tiny_split):
        condensed = make_reducer(name, seed=0).reduce(tiny_split, 9)
        assert np.unique(condensed.labels).size == tiny_split.num_classes

    @pytest.mark.parametrize("name", CORESETS)
    def test_selected_features_are_real_rows(self, name, tiny_split):
        condensed = make_reducer(name, seed=0).reduce(tiny_split, 9)
        original = tiny_split.original.features
        for row in condensed.features:
            assert (np.abs(original - row).sum(axis=1) < 1e-12).any()

    def test_mapping_is_one_hot_selection(self, tiny_split):
        condensed = make_reducer("random", seed=0).reduce(tiny_split, 9)
        mapping = condensed.mapping.toarray()
        assert mapping.sum() == 9
        assert set(np.unique(mapping)) <= {0.0, 1.0}
        assert (mapping.sum(axis=0) == 1.0).all()

    def test_degree_picks_highest_degree(self, tiny_split):
        condensed = make_reducer("degree", seed=0).reduce(tiny_split, 9)
        graph = tiny_split.original
        chosen_rows = condensed.mapping.tocoo().row
        chosen_degrees = graph.degrees()[chosen_rows]
        assert chosen_degrees.mean() >= graph.degrees().mean()

    def test_random_differs_across_seeds(self, tiny_split):
        a = make_reducer("random", seed=0).reduce(tiny_split, 9)
        b = make_reducer("random", seed=1).reduce(tiny_split, 9)
        assert not np.allclose(a.features, b.features)

    def test_herding_deterministic(self, tiny_split):
        a = make_reducer("herding", seed=0).reduce(tiny_split, 9)
        b = make_reducer("herding", seed=99).reduce(tiny_split, 9)
        assert np.allclose(a.features, b.features)  # herding has no randomness

    def test_budget_validation(self, tiny_split):
        with pytest.raises(CondensationError):
            make_reducer("random").reduce(tiny_split, 1)
        with pytest.raises(CondensationError):
            make_reducer("random").reduce(tiny_split, 10 ** 6)

    def test_sgc_embeddings_shape(self, tiny_split):
        emb = sgc_embeddings(tiny_split.original)
        assert emb.shape == tiny_split.original.features.shape


class TestWeightedKmeans:
    def test_returns_k_clusters(self, rng):
        points = rng.standard_normal((50, 3))
        assignment, centroids = weighted_kmeans(points, np.ones(50), 5, rng)
        assert centroids.shape == (5, 3)
        assert np.unique(assignment).size == 5

    def test_weighting_pulls_centroid(self, rng):
        points = np.array([[0.0], [10.0]])
        weights = np.array([100.0, 1.0])
        _, centroids = weighted_kmeans(points, weights, 1, rng, iters=5)
        assert centroids[0, 0] < 1.0

    def test_invalid_k_rejected(self, rng):
        with pytest.raises(CondensationError):
            weighted_kmeans(np.ones((3, 2)), np.ones(3), 0, rng)
        with pytest.raises(CondensationError):
            weighted_kmeans(np.ones((3, 2)), np.ones(3), 4, rng)

    def test_negative_weights_rejected(self, rng):
        with pytest.raises(CondensationError):
            weighted_kmeans(np.ones((3, 2)), np.array([-1.0, 1, 1]), 2, rng)


class TestVng:
    def test_output_structure(self, tiny_split):
        condensed = VngReducer(seed=0).reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert condensed.method == "vng"
        assert condensed.supports_attachment()

    def test_mapping_assigns_every_original_node(self, tiny_split):
        condensed = VngReducer(seed=0).reduce(tiny_split, 9)
        mapping = condensed.mapping
        assert mapping.shape[0] == tiny_split.original.num_nodes
        assert np.allclose(np.asarray(mapping.sum(axis=1)).reshape(-1), 1.0)

    def test_clusters_class_pure(self, tiny_split):
        condensed = VngReducer(seed=0).reduce(tiny_split, 9)
        assignment = condensed.mapping.tocoo()
        original_labels = tiny_split.original.labels[assignment.row]
        virtual_labels = condensed.labels[assignment.col]
        assert (original_labels == virtual_labels).all()

    def test_adjacency_nonnegative_symmetric(self, tiny_split):
        condensed = VngReducer(seed=0).reduce(tiny_split, 9)
        assert (condensed.adjacency >= 0).all()
        assert np.allclose(condensed.adjacency, condensed.adjacency.T)

    def test_deterministic_by_seed(self, tiny_split):
        a = VngReducer(seed=3).reduce(tiny_split, 9)
        b = VngReducer(seed=3).reduce(tiny_split, 9)
        assert np.allclose(a.features, b.features)
        assert np.allclose(a.adjacency, b.adjacency)
