"""Sparse-constant matmul support and memory accounting."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    dense_memory_bytes,
    grad,
    gradcheck,
    gradgradcheck,
    mul,
    no_grad,
    sparse_memory_bytes,
    spmm,
    tensor_sum,
)

RNG = np.random.default_rng(3)



class TestSpmm:
    def test_matches_dense_product(self):
        matrix = sp.random(6, 5, density=0.4, random_state=0, format="csr")
        dense = RNG.standard_normal((5, 3))
        out = spmm(matrix, Tensor(dense))
        assert np.allclose(out.data, matrix.toarray() @ dense)

    def test_gradcheck(self):
        matrix = sp.csr_matrix(RNG.random((5, 4)) * (RNG.random((5, 4)) > 0.5))
        h = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        gradcheck(lambda h: tensor_sum(mul(spmm(matrix, h), spmm(matrix, h))), [h])

    def test_double_backward(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        h = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
        y = tensor_sum(mul(spmm(matrix, h), spmm(matrix, h)))
        (g1,) = grad(y, [h], create_graph=True)
        (g2,) = grad(tensor_sum(g1), [h])
        dense = matrix.toarray()
        expected = 2 * dense.T @ dense @ np.ones((2, 2))
        assert np.allclose(g2.data, expected)

    def test_vector_operand(self):
        matrix = sp.csr_matrix(np.eye(3))
        v = Tensor(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(spmm(matrix, v).data, v.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            spmm(sp.csr_matrix(np.eye(3)), Tensor(np.ones((4, 2))))

    def test_dense_first_operand_rejected(self):
        with pytest.raises(ShapeError):
            spmm(np.eye(3), Tensor(np.ones((3, 2))))

    def test_gradgradcheck(self):
        matrix = sp.csr_matrix(RNG.random((5, 4)) * (RNG.random((5, 4)) > 0.5))
        h = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        assert gradgradcheck(
            lambda h: tensor_sum(mul(spmm(matrix, h), spmm(matrix, h))), [h])


@pytest.fixture
def transposes(monkeypatch):
    """Counts ``csr_matrix.transpose`` calls (``matrix.T`` goes through it)."""
    calls = []
    original = sp.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
    return calls


class TestSpmmTranspose:
    """The backward's ``Aᵀ`` is built only for a product on the tape."""

    matrix = sp.random(7, 5, density=0.4, random_state=1, format="csr")

    def test_no_transpose_under_no_grad(self, transposes):
        h = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        with no_grad():
            out = spmm(self.matrix, h)
        assert transposes == []
        assert not out.requires_grad
        assert np.array_equal(out.data, self.matrix @ h.data)

    def test_no_transpose_for_constant_operand(self, transposes):
        h = Tensor(RNG.standard_normal((5, 3)))
        out = spmm(self.matrix, h)
        assert transposes == []
        assert not out.requires_grad
        assert np.array_equal(out.data, self.matrix @ h.data)

    def test_differentiable_operand_gets_exact_transpose_product(self, transposes):
        weights = RNG.standard_normal((7, 3))
        expected = self.matrix.T.tocsr() @ weights
        transposes.clear()
        h = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        out = spmm(self.matrix, h)
        assert out.requires_grad
        assert transposes == [self.matrix.shape]
        (g,) = grad(tensor_sum(mul(out, Tensor(weights))), [h])
        assert np.array_equal(g.data, expected)
        # the first-order backward is untaped: it transposes nothing again
        assert transposes == [self.matrix.shape]


class TestMemoryAccounting:
    def test_sparse_bytes_grow_with_nnz(self):
        small = sp.identity(10, format="csr")
        large = sp.csr_matrix(np.ones((10, 10)))
        assert sparse_memory_bytes(large) > sparse_memory_bytes(small)

    def test_dense_bytes(self):
        assert dense_memory_bytes(np.zeros((4, 4))) == 4 * 4 * 8

    def test_sparse_bytes_counts_all_arrays(self):
        matrix = sp.identity(5, format="csr")
        expected = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert sparse_memory_bytes(matrix) == expected
