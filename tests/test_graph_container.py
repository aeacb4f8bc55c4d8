"""Graph container: validation, views, equality."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import Graph


class TestConstruction:
    def test_basic_properties(self, path_graph):
        assert path_graph.num_nodes == 5
        assert path_graph.num_edges == 8  # 4 undirected edges stored twice
        assert path_graph.feature_dim == 2
        assert path_graph.num_classes == 2

    def test_rejects_nonsquare_adjacency(self):
        with pytest.raises(GraphError):
            Graph(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(GraphError):
            Graph(np.eye(3), np.ones((2, 2)))

    def test_rejects_1d_features(self):
        with pytest.raises(GraphError):
            Graph(np.eye(3), np.ones(3))

    def test_rejects_negative_weights(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = -1.0
        with pytest.raises(GraphError):
            Graph(adj, np.ones((2, 1)))

    def test_rejects_nan_weights(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [np.nan, 0.0]]))
        with pytest.raises(GraphError, match="finite"):
            Graph(adj, np.ones((2, 1)))

    def test_rejects_bad_label_shape(self):
        with pytest.raises(GraphError):
            Graph(np.eye(3), np.ones((3, 1)), labels=np.array([0, 1]))

    def test_num_classes_inferred(self):
        g = Graph(np.eye(3), np.ones((3, 1)), labels=np.array([0, 2, 1]))
        assert g.num_classes == 3

    def test_num_classes_explicit_override(self):
        g = Graph(np.eye(3), np.ones((3, 1)), labels=np.array([0, 1, 1]),
                  num_classes=5)
        assert g.num_classes == 5

    def test_accepts_dense_and_sparse(self):
        dense = Graph(np.eye(2), np.ones((2, 1)))
        sparse = Graph(sp.identity(2, format="coo"), np.ones((2, 1)))
        assert dense == sparse


class TestViewsAndQueries:
    def test_degrees(self, path_graph):
        assert np.allclose(path_graph.degrees(), [1, 2, 2, 2, 1])

    def test_is_symmetric(self, path_graph):
        assert path_graph.is_symmetric()

    def test_asymmetric_detected(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        assert not Graph(adj, np.ones((2, 1))).is_symmetric()

    def test_self_loop_detection(self, path_graph):
        assert not path_graph.has_self_loops()
        g = Graph(np.eye(2), np.ones((2, 1)))
        assert g.has_self_loops()

    def test_subgraph_preserves_edges(self, path_graph):
        sub = path_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 4  # edges 0-1 and 1-2, stored twice
        assert np.allclose(sub.features, path_graph.features[:3])

    def test_subgraph_reorders(self, path_graph):
        sub = path_graph.subgraph(np.array([4, 0]))
        assert np.allclose(sub.features[0], path_graph.features[4])
        assert sub.num_edges == 0  # nodes 4 and 0 are not adjacent

    def test_subgraph_rejects_duplicates(self, path_graph):
        with pytest.raises(GraphError):
            path_graph.subgraph(np.array([0, 0]))

    def test_subgraph_rejects_out_of_range(self, path_graph):
        with pytest.raises(GraphError):
            path_graph.subgraph(np.array([7]))

    def test_subgraph_rejects_2d_indices(self, path_graph):
        with pytest.raises(GraphError,
                           match=r"^indices must be 1-D, got shape \(1, 2\)$"):
            path_graph.subgraph(np.array([[0, 1]]))

    def test_cross_adjacency(self, path_graph):
        block = path_graph.cross_adjacency(np.array([0]), np.array([1, 2]))
        assert block.shape == (1, 2)
        assert block[0, 0] == 1.0
        assert block[0, 1] == 0.0

    def test_copy_is_deep(self, path_graph):
        clone = path_graph.copy()
        assert clone == path_graph
        clone.features[0, 0] = 99.0
        assert path_graph.features[0, 0] != 99.0
        assert clone != path_graph
        assert clone.num_nodes == path_graph.num_nodes


class TestEquality:
    def test_equality_against_other_type(self, path_graph):
        assert path_graph.__eq__(42) is NotImplemented
