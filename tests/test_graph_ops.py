"""Graph-matrix operations: normalization, Laplacian, statistics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import (
    add_self_loops,
    adjacency_from_edges,
    connected_components_count,
    dense_symmetric_normalize,
    edge_homophily,
    laplacian,
    normalize_adjacency,
    remove_self_loops,
    row_normalize,
    symmetric_normalize,
    symmetrize,
)


def ring(n=5):
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    return adjacency_from_edges(edges, n)


class TestSelfLoops:
    def test_add_self_loops_sets_diagonal(self):
        adj = add_self_loops(ring())
        assert np.allclose(adj.diagonal(), 1.0)

    def test_add_replaces_existing_diagonal(self):
        adj = sp.identity(3, format="csr") * 5.0
        out = add_self_loops(adj, weight=2.0)
        assert np.allclose(out.diagonal(), 2.0)

    def test_remove_self_loops(self):
        adj = add_self_loops(ring())
        out = remove_self_loops(adj)
        assert out.diagonal().sum() == 0
        assert out.nnz == ring().nnz

    def test_nonsquare_rejected(self):
        with pytest.raises(GraphError):
            add_self_loops(sp.csr_matrix(np.ones((2, 3))))


class TestNormalization:
    def test_symmetric_normalization_eigenvalue_bound(self):
        norm = symmetric_normalize(ring(8)).toarray()
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_symmetric_normalization_is_symmetric(self):
        norm = symmetric_normalize(ring(6)).toarray()
        assert np.allclose(norm, norm.T)

    def test_row_normalize_rows_sum_to_one(self):
        norm = row_normalize(ring(5), self_loops=True)
        assert np.allclose(np.asarray(norm.sum(axis=1)).reshape(-1), 1.0)

    def test_row_normalize_isolated_node_zero_row(self):
        adj = sp.csr_matrix((3, 3))
        norm = row_normalize(adj, self_loops=False)
        assert norm.nnz == 0

    def test_normalize_dispatch(self):
        # A star graph is irregular, so sym and row normalization differ.
        star = adjacency_from_edges(np.array([[0, 1], [0, 2], [0, 3]]), 4)
        sym = normalize_adjacency(star, method="sym")
        row = normalize_adjacency(star, method="row")
        assert not np.allclose(sym.toarray(), row.toarray())

    def test_normalize_unknown_method(self):
        with pytest.raises(GraphError):
            normalize_adjacency(ring(), method="bogus")

    def test_dense_matches_sparse_normalization(self):
        adj = ring(7)
        dense = dense_symmetric_normalize(adj.toarray(), self_loops=True)
        sparse = symmetric_normalize(adj, self_loops=True).toarray()
        assert np.allclose(dense, sparse)

    def test_dense_normalize_no_self_loops(self):
        adj = ring(4).toarray()
        out = dense_symmetric_normalize(adj, self_loops=False)
        assert np.allclose(out.diagonal(), 0.0)


class TestStructureStats:
    def test_symmetrize(self):
        adj = sp.csr_matrix(np.triu(np.ones((3, 3)), 1))
        sym = symmetrize(adj)
        assert (sym != sym.T).nnz == 0

    def test_homophily_perfect(self):
        adj = adjacency_from_edges(np.array([[0, 1], [2, 3]]), 4)
        labels = np.array([0, 0, 1, 1])
        assert edge_homophily(adj, labels) == 1.0

    def test_homophily_zero(self):
        adj = adjacency_from_edges(np.array([[0, 1]]), 2)
        assert edge_homophily(adj, np.array([0, 1])) == 0.0

    def test_homophily_empty_graph(self):
        assert edge_homophily(sp.csr_matrix((3, 3)), np.zeros(3)) == 0.0

    def test_connected_components(self):
        adj = adjacency_from_edges(np.array([[0, 1], [2, 3]]), 5)
        assert connected_components_count(adj) == 3

    def test_laplacian_normalized_psd(self):
        lap = laplacian(ring(6), normalized=True).toarray()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 2.0 + 1e-9

    def test_laplacian_unnormalized_row_sums_zero(self):
        lap = laplacian(ring(5), normalized=False).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)


class TestAdjacencyFromEdges:
    def test_symmetric_output(self):
        adj = adjacency_from_edges(np.array([[0, 1]]), 3)
        assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0

    def test_duplicate_edges_collapse(self):
        adj = adjacency_from_edges(np.array([[0, 1], [0, 1], [1, 0]]), 2)
        assert adj.nnz == 2
        assert adj.max() == 1.0

    def test_empty_edges(self):
        adj = adjacency_from_edges(np.empty((0, 2)), 4)
        assert adj.nnz == 0
        assert adj.shape == (4, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            adjacency_from_edges(np.array([[0, 9]]), 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphError):
            adjacency_from_edges(np.array([[0, 1, 2]]), 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=12))
def test_symmetric_normalization_spectral_radius_property(n):
    adj = ring(n)
    norm = symmetric_normalize(adj).toarray()
    assert np.abs(np.linalg.eigvalsh(norm)).max() <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
def test_sorted_unique_matches_np_unique(ids):
    from repro.graph.ops import _sorted_unique

    ids = np.asarray(ids, dtype=np.int64)
    assert np.array_equal(_sorted_unique(ids, 51), np.unique(ids))
