"""Graph-matrix operations: canonical form, normalization, statistics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import (
    add_self_loops,
    adjacency_from_edges,
    canonical_csr,
    dense_symmetric_normalize,
    edge_homophily,
    remove_self_loops,
    symmetric_normalize,
)


def _canonical_oracle(matrix, shape):
    """The canonical form spelled the long way, independent of the code
    under test."""
    if matrix is None:
        return sp.csr_matrix(shape, dtype=np.float64)
    coo = (matrix if sp.issparse(matrix)
           else sp.coo_matrix(np.atleast_2d(matrix))).tocoo()
    csr = coo.tocsr().astype(np.float64)
    csr.sum_duplicates()
    return csr


@st.composite
def _raw_inputs(draw):
    """A matrix in one of the forms callers hand over, with duplicates,
    explicit zeros and unsorted indices; returns ``(matrix, shape)``."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    form = draw(st.sampled_from(
        ("coo", "csr", "csc", "dense", "dense-1d", "none", "canonical")))
    dtype = draw(st.sampled_from((np.int32, np.int64, np.float64)))
    if form == "dense-1d":
        rows = 1
    entries = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.integers(-8, 8)), max_size=12))
    row, col, values = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    # quarter-integers sum exactly in any order
    data = (values / 4.0 if dtype == np.float64 else values).astype(dtype)
    shape = (rows, cols)
    coo = sp.coo_matrix((data, (row, col)), shape=shape)
    if form == "none":
        return None, shape
    if form == "coo":
        return coo, shape
    if form in ("dense", "dense-1d"):
        dense = coo.toarray()
        return (dense[0] if form == "dense-1d" else dense), shape
    if form == "canonical":
        return _canonical_oracle(coo, shape), shape
    # CSR (CSC) straight from arrays: arrival order within a row (column)
    # is kept, so indices may be unsorted and duplicated
    major, minor = (row, col) if form == "csr" else (col, row)
    order = np.argsort(major, kind="stable")
    indptr = np.zeros((rows if form == "csr" else cols) + 1, dtype=np.int32)
    np.add.at(indptr, major + 1, 1)
    cls = sp.csr_matrix if form == "csr" else sp.csc_matrix
    return cls((data[order], minor[order].astype(np.int32),
                np.cumsum(indptr, dtype=np.int32)), shape=shape), shape


def _arrays(matrix):
    if matrix is None:
        return ()
    if not sp.issparse(matrix):
        return (np.array(matrix),)
    if matrix.format == "coo":
        return tuple(a.copy() for a in (matrix.data, matrix.row, matrix.col))
    return tuple(a.copy()
                 for a in (matrix.data, matrix.indices, matrix.indptr))


@settings(max_examples=200, deadline=None)
@given(_raw_inputs())
# always: an unsorted float64 CSR holding a duplicate and an explicit zero
@example((sp.csr_matrix((np.array([1.5, 0.0, 2.0, 0.25]),
                         np.array([2, 1, 2, 0], dtype=np.int32),
                         np.array([0, 3, 4], dtype=np.int32)), shape=(2, 3)),
          (2, 3)))
def test_canonical_csr_matches_oracle(raw):
    matrix, shape = raw
    before = _arrays(matrix)
    already = (sp.issparse(matrix) and matrix.format == "csr"
               and matrix.dtype == np.float64
               and sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                                 shape=matrix.shape).has_canonical_format)
    result = canonical_csr(matrix, shape)
    expected = _canonical_oracle(matrix, shape)
    assert result.format == "csr" and result.dtype == np.float64
    assert result.shape == shape
    assert np.array_equal(result.data.view(np.uint64),
                          expected.data.view(np.uint64))
    assert np.array_equal(result.indices, expected.indices)
    assert np.array_equal(result.indptr, expected.indptr)
    assert (result is matrix) == already
    for old, new in zip(before, _arrays(matrix)):
        assert np.array_equal(old, new)
    if matrix is not None:
        with pytest.raises(GraphError, match="block has shape"):
            canonical_csr(matrix, (shape[0] + 1, shape[1]), name="block")


class TestCanonicalCsr:
    """The contract cases of :func:`canonical_csr`, one at a time."""

    def test_canonical_float64_csr_passes_through_uncopied(self):
        csr = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        out = canonical_csr(csr, (2, 2))
        assert out is csr
        assert np.shares_memory(out.data, csr.data)

    def test_float32_input_gets_fresh_float64_arrays(self):
        csr = sp.csr_matrix(np.array([[0.0, 2.5], [1.0, 0.0]],
                                     dtype=np.float32))
        out = canonical_csr(csr)
        assert out is not csr and out.dtype == np.float64
        assert not np.shares_memory(out.data, csr.data)
        assert csr.dtype == np.float32
        assert np.array_equal(out.toarray(), [[0.0, 2.5], [1.0, 0.0]])

    def test_none_is_empty_matrix_of_shape(self):
        out = canonical_csr(None, (3, 4))
        assert out.format == "csr" and out.dtype == np.float64
        assert out.shape == (3, 4) and out.nnz == 0

    def test_1d_dense_is_one_row(self):
        out = canonical_csr(np.array([0.0, 3.0, 0.5]), (1, 3))
        assert out.shape == (1, 3)
        assert np.array_equal(out.toarray(), [[0.0, 3.0, 0.5]])


def ring(n=5):
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    return adjacency_from_edges(edges, n)


class TestSelfLoops:
    def test_add_self_loops_sets_diagonal(self):
        adj = add_self_loops(ring())
        assert np.allclose(adj.diagonal(), 1.0)

    def test_add_replaces_existing_diagonal(self):
        adj = sp.identity(3, format="csr") * 5.0
        out = add_self_loops(adj)
        assert np.allclose(out.diagonal(), 1.0)

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
    def test_homophily_perfect(self):
        adj = adjacency_from_edges(np.array([[0, 1], [2, 3]]), 4)
        labels = np.array([0, 0, 1, 1])
        assert edge_homophily(adj, labels) == 1.0

    def test_homophily_zero(self):
        adj = adjacency_from_edges(np.array([[0, 1]]), 2)
        assert edge_homophily(adj, np.array([0, 1])) == 0.0

    def test_homophily_empty_graph(self):
        assert edge_homophily(sp.csr_matrix((3, 3)), np.zeros(3)) == 0.0



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
