"""Cross-module property tests on the paper's core invariants."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.condense import allocate_class_counts, selection_mapping, sparsify_matrix
from repro.graph import (
    adjacency_from_edges,
    attach_to_original,
    attach_to_synthetic,
    convert_connections,
    dense_symmetric_normalize,
)

SMALL = st.integers(min_value=2, max_value=8)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=40),
       st.integers(min_value=5, max_value=20))
def test_allocation_sums_to_budget_and_covers_present_classes(labels, budget):
    labels = np.asarray(labels)
    present = np.unique(labels)
    if budget < present.size:
        budget = present.size
    counts = allocate_class_counts(labels, budget, 5)
    assert counts.sum() == budget
    assert (counts[present] >= 1).all()
    absent = np.setdiff1d(np.arange(5), present)
    assert (counts[absent] == 0).all()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=41))
def test_allocation_gives_nodes_only_to_labeled_classes(data, num_classes):
    """Every class given a synthetic node has labeled nodes, at every
    class count and budget scale (the largest-remainder step runs in
    floating point): a coreset never selects from an empty class."""
    labels = np.asarray(data.draw(st.lists(
        st.integers(min_value=0, max_value=num_classes - 1),
        min_size=1, max_size=300)))
    present = np.unique(labels).size
    budget = data.draw(st.integers(min_value=present,
                                   max_value=max(present, 5000)))
    counts = allocate_class_counts(labels, budget, num_classes)
    assert counts.sum() == budget
    assert np.isin(np.flatnonzero(counts > 0), labels).all()


@settings(max_examples=30, deadline=None)
@given(SMALL, SMALL)
def test_selection_mapping_converts_to_column_selection(n_orig, n_sel):
    n_sel = min(n_sel, n_orig)
    rng = np.random.default_rng(n_orig * 31 + n_sel)
    selected = rng.choice(n_orig, size=n_sel, replace=False)
    mapping = selection_mapping(selected, n_orig)
    incremental = sp.csr_matrix(rng.random((3, n_orig)) > 0.5, dtype=float)
    converted = convert_connections(incremental, mapping).toarray()
    assert np.allclose(converted, incremental.toarray()[:, selected])


@settings(max_examples=25, deadline=None)
@given(SMALL, st.integers(min_value=1, max_value=4))
def test_attach_original_symmetry_property(n_base, n_new):
    rng = np.random.default_rng(n_base * 7 + n_new)
    edges = np.array([[i, (i + 1) % n_base] for i in range(n_base)])
    base = adjacency_from_edges(edges, n_base)
    incremental = sp.csr_matrix((rng.random((n_new, n_base)) > 0.5).astype(float))
    attached = attach_to_original(base, rng.random((n_base, 2)), incremental,
                                  rng.random((n_new, 2)))
    dense = attached.adjacency.toarray()
    assert np.allclose(dense, dense.T)
    assert attached.num_nodes == n_base + n_new


@settings(max_examples=25, deadline=None)
@given(SMALL, st.integers(min_value=1, max_value=3), SMALL)
def test_attach_synthetic_block_shapes(n_orig, n_new, n_syn):
    rng = np.random.default_rng(n_orig + 13 * n_new + 101 * n_syn)
    synthetic = rng.random((n_syn, n_syn))
    synthetic = 0.5 * (synthetic + synthetic.T)
    np.fill_diagonal(synthetic, 0.0)
    mapping = rng.random((n_orig, n_syn))
    incremental = sp.csr_matrix((rng.random((n_new, n_orig)) > 0.3).astype(float))
    attached = attach_to_synthetic(synthetic, rng.random((n_syn, 2)),
                                   incremental, rng.random((n_new, 2)), mapping)
    assert attached.base_size == n_syn
    assert attached.num_new == n_new
    dense = attached.adjacency.toarray()
    assert np.allclose(dense[:n_syn, :n_syn], synthetic)
    expected = incremental.toarray() @ mapping
    assert np.allclose(dense[n_syn:, :n_syn], expected)


@settings(max_examples=25, deadline=None)
@given(SMALL)
def test_dense_normalization_spectral_bound(n):
    rng = np.random.default_rng(n)
    adjacency = rng.random((n, n))
    adjacency = 0.5 * (adjacency + adjacency.T)
    np.fill_diagonal(adjacency, 0.0)
    normalized = dense_symmetric_normalize(adjacency, self_loops=True)
    eigenvalues = np.linalg.eigvalsh(normalized)
    assert eigenvalues.max() <= 1.0 + 1e-9
    assert eigenvalues.min() >= -1.0 - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_sparsify_preserves_large_entries_exactly(threshold):
    rng = np.random.default_rng(int(threshold * 1000))
    matrix = rng.random((6, 6))
    sparse = sparsify_matrix(matrix, threshold).toarray()
    large = matrix >= threshold
    assert np.allclose(sparse[large], matrix[large])
    assert (sparse[~large] == 0).all()
