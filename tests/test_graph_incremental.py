"""Eq. (3) / Eq. (11): attaching inductive nodes."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import (
    attach_to_original,
    attach_to_synthetic,
    convert_connections,
)


@pytest.fixture
def base():
    adjacency = sp.csr_matrix(np.array([
        [0, 1, 0],
        [1, 0, 1],
        [0, 1, 0]], dtype=float))
    features = np.arange(6, dtype=float).reshape(3, 2)
    return adjacency, features


class TestAttachOriginal:
    def test_block_structure(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
        x_new = np.array([[9.0, 9.0]])
        attached = attach_to_original(adjacency, features, inc, x_new)
        assert attached.num_nodes == 4
        assert attached.base_size == 3
        dense = attached.adjacency.toarray()
        assert dense[3, 0] == 1.0 and dense[0, 3] == 1.0
        assert np.allclose(dense[:3, :3], adjacency.toarray())
        assert np.allclose(attached.features[3], x_new[0])

    def test_symmetry_preserved(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
        attached = attach_to_original(adjacency, features, inc, np.zeros((2, 2)))
        dense = attached.adjacency.toarray()
        assert np.allclose(dense, dense.T)

    def test_node_batch_zeroes_intra(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.zeros((2, 3)))
        attached = attach_to_original(adjacency, features, inc, np.zeros((2, 2)),
                                      intra=None)
        dense = attached.adjacency.toarray()
        assert np.allclose(dense[3:, 3:], 0.0)

    def test_graph_batch_keeps_intra(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.zeros((2, 3)))
        intra = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        attached = attach_to_original(adjacency, features, inc, np.zeros((2, 2)),
                                      intra=intra)
        assert attached.adjacency.toarray()[3, 4] == 1.0

    def test_feature_dim_mismatch_rejected(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.zeros((1, 3)))
        with pytest.raises(GraphError):
            attach_to_original(adjacency, features, inc, np.zeros((1, 5)))

    def test_1d_features_rejected(self, base):
        adjacency, features = base
        inc = sp.csr_matrix(np.zeros((1, 3)))
        with pytest.raises(GraphError, match="2-D"):
            attach_to_original(adjacency, features, inc, np.zeros(2))

    def test_incremental_shape_mismatch_rejected(self, base):
        adjacency, features = base
        with pytest.raises(GraphError):
            attach_to_original(adjacency, features,
                               sp.csr_matrix(np.zeros((1, 7))), np.zeros((1, 2)))


class TestConvertConnections:
    def test_one_hot_mapping_selects_columns(self):
        inc = sp.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
        mapping = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        converted = convert_connections(inc, mapping)
        assert np.allclose(converted.toarray(), [[1.0, 1.0]])

    def test_dense_mapping_supported(self):
        inc = sp.csr_matrix(np.array([[1.0, 0.0]]))
        mapping = np.array([[0.5, 0.5], [0.0, 1.0]])
        converted = convert_connections(inc, mapping)
        assert np.allclose(converted.toarray(), [[0.5, 0.5]])

    def test_weights_combine_linearly(self):
        inc = sp.csr_matrix(np.array([[2.0, 1.0]]))
        mapping = np.array([[0.25, 0.0], [0.5, 0.5]])
        converted = convert_connections(inc, mapping).toarray()
        assert np.allclose(converted, [[2 * 0.25 + 1 * 0.5, 0.5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            convert_connections(sp.csr_matrix(np.zeros((1, 3))),
                                np.zeros((2, 2)))

    def test_zero_rows_eliminated(self):
        inc = sp.csr_matrix(np.array([[0.0, 0.0]]))
        converted = convert_connections(inc, np.ones((2, 2)))
        assert converted.nnz == 0


class TestDuplicateEntryPolicy:
    """Duplicated (row, col) pairs in the raw input are one weighted
    multi-edge: they are summed before the ``a @ M`` product."""

    def _dup_coo(self):
        # edge (0, 1) reported twice, edge (0, 0) once
        return sp.coo_matrix(
            (np.array([1.0, 1.0, 1.0]),
             (np.array([0, 0, 0]), np.array([1, 1, 0]))), shape=(1, 3))

    def test_sum_policy_is_explicit_default(self):
        mapping = np.eye(3)
        converted = convert_connections(self._dup_coo(), mapping)
        assert np.allclose(converted.toarray(), [[1.0, 2.0, 0.0]])

    def test_duplicate_csr_stored_entries_canonicalized(self):
        # a CSR built from raw arrays can hold duplicate stored entries
        inc = sp.csr_matrix(
            (np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])),
            shape=(1, 2))
        summed = convert_connections(inc, np.eye(2))
        assert summed.toarray()[0, 0] == 2.0

    def test_summed_duplicates_match_presummed_input_bitwise(self):
        rng = np.random.default_rng(4)
        mapping = sp.csr_matrix(rng.random((6, 3)))
        row = np.array([0, 0, 1, 1, 1, 2])
        col = np.array([2, 2, 0, 0, 5, 3])
        dup = sp.coo_matrix((np.ones(6), (row, col)), shape=(3, 6))
        presummed = sp.coo_matrix(
            (np.array([2.0, 2.0, 1.0, 1.0]),
             (np.array([0, 1, 1, 2]), np.array([2, 0, 5, 3]))),
            shape=(3, 6))
        a = convert_connections(dup, mapping)
        b = convert_connections(presummed, mapping)
        assert np.array_equal(a.toarray(), b.toarray())

    def test_callers_arrays_not_written(self):
        # unsorted, duplicated stored entries and an explicit zero
        data = np.array([1.0, 0.0, 1.0])
        indices = np.array([1, 0, 1], dtype=np.int32)
        indptr = np.array([0, 3], dtype=np.int32)
        inc = sp.csr_matrix((data, indices, indptr), shape=(1, 2))
        convert_connections(inc, np.eye(2))
        assert np.array_equal(inc.data, [1.0, 0.0, 1.0])
        assert np.array_equal(inc.indices, [1, 0, 1])
        assert np.array_equal(inc.indptr, [0, 3])

    def test_attach_to_synthetic_sums_duplicates(self):
        attached = attach_to_synthetic(np.zeros((3, 3)), np.zeros((3, 2)),
                                       self._dup_coo(), np.zeros((1, 2)),
                                       np.eye(3))
        assert attached.adjacency.toarray()[3, 1] == 2.0


class TestAttachSynthetic:
    def test_full_equation_11(self):
        synthetic_adjacency = np.array([[0.0, 0.8], [0.8, 0.0]])
        synthetic_features = np.array([[1.0, 0.0], [0.0, 1.0]])
        inc = sp.csr_matrix(np.array([[1.0, 0.0, 1.0]]))  # edges to orig 0, 2
        mapping = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        attached = attach_to_synthetic(synthetic_adjacency, synthetic_features,
                                       inc, np.array([[0.5, 0.5]]), mapping)
        dense = attached.adjacency.toarray()
        assert attached.base_size == 2
        # aM = [1, 1]: the inductive node connects to both synthetic nodes.
        assert dense[2, 0] == 1.0 and dense[2, 1] == 1.0
        assert np.allclose(dense[:2, :2], synthetic_adjacency)
        assert np.allclose(dense, dense.T)

    def test_sparse_mapping(self):
        inc = sp.csr_matrix(np.array([[1.0, 0.0]]))
        mapping = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        attached = attach_to_synthetic(np.zeros((2, 2)), np.zeros((2, 3)),
                                       inc, np.zeros((1, 3)), mapping)
        assert attached.adjacency.toarray()[2, 1] == 1.0

    def test_1d_features_rejected(self):
        inc = sp.csr_matrix(np.array([[1.0, 0.0]]))
        with pytest.raises(GraphError, match="2-D"):
            attach_to_synthetic(np.zeros((2, 2)), np.zeros((2, 3)), inc,
                                np.zeros(3), np.eye(2))


class TestEdgeCases:
    """Empty batches, isolated nodes, and non-CSR inputs."""

    def test_empty_batch_original(self, base):
        adjacency, features = base
        attached = attach_to_original(adjacency, features,
                                      sp.csr_matrix((0, 3)), np.zeros((0, 2)))
        assert attached.num_new == 0
        assert attached.num_nodes == 3
        assert np.allclose(attached.adjacency.toarray(), adjacency.toarray())

    def test_empty_batch_synthetic(self):
        attached = attach_to_synthetic(
            np.zeros((2, 2)), np.zeros((2, 3)), sp.csr_matrix((0, 4)),
            np.zeros((0, 3)), np.ones((4, 2)))
        assert attached.num_new == 0
        assert attached.adjacency.shape == (2, 2)

    def test_zero_connection_nodes(self, base):
        # arrivals with no edges into the base graph stay isolated but
        # still get rows/features in the augmented graph
        adjacency, features = base
        attached = attach_to_original(adjacency, features,
                                      sp.csr_matrix(np.zeros((2, 3))),
                                      np.ones((2, 2)))
        dense = attached.adjacency.toarray()
        assert not dense[3:, :].any() and not dense[:, 3:].any()
        assert attached.features.shape == (5, 2)

    def test_zero_connection_through_mapping(self):
        converted = convert_connections(sp.csr_matrix((2, 3)), np.ones((3, 2)))
        assert converted.shape == (2, 2)
        assert converted.nnz == 0

    @pytest.mark.parametrize("wrap", (sp.coo_matrix, sp.csc_matrix,
                                      np.asarray, lambda m: m.tolist()))
    def test_non_csr_incremental_accepted(self, base, wrap):
        adjacency, features = base
        inc = wrap(np.array([[1.0, 0.0, 0.0]]))
        attached = attach_to_original(adjacency, features, inc,
                                      np.ones((1, 2)))
        assert attached.adjacency[3, 0] == 1.0

    @pytest.mark.parametrize("wrap", (sp.coo_matrix, sp.csc_matrix,
                                      np.asarray))
    def test_non_csr_convert_inputs(self, wrap):
        inc = wrap(np.array([[1.0, 1.0, 0.0]]))
        mapping = wrap(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        converted = convert_connections(inc, mapping)
        assert isinstance(converted, sp.csr_matrix)
        assert np.allclose(converted.toarray(), [[1.0, 1.0]])

    def test_sparse_mapping_shape_mismatch_is_graph_error(self):
        # regression: the sparse-mapping path used to leak scipy's raw
        # ValueError instead of the library's GraphError
        with pytest.raises(GraphError):
            convert_connections(sp.csr_matrix(np.zeros((1, 3))),
                                sp.csr_matrix(np.zeros((2, 2))))

    def test_empty_batch_serves_through_attach(self, base):
        # the augmented graph of an empty batch still normalizes and serves
        from repro.graph.ops import symmetric_normalize
        adjacency, features = base
        attached = attach_to_original(adjacency, features,
                                      sp.csr_matrix((0, 3)), np.zeros((0, 2)))
        operator = symmetric_normalize(attached.adjacency)
        assert operator.shape == (3, 3)
