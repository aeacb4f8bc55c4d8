"""MCond's four loss terms and the mapping matrix (Eq. 5, 8, 10, 12, 14, 15)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CondensationError
from repro.condense import (
    MappingMatrix,
    class_aware_logits,
    class_block_mass,
    gradient_matching_loss,
    inductive_loss,
    sparsify_matrix,
    structure_loss,
    transductive_loss,
)
from repro.graph.sampling import EdgeBatch
from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    div,
    gather_rows,
    grad,
    gradcheck,
    matmul,
    maximum_const,
    mul,
    sigmoid,
    sub,
    tensor_sum,
)
from repro.tensor.tensor import as_tensor, make_op

RNG = np.random.default_rng(5)


def taped_normalized(mapping: MappingMatrix) -> Tensor:
    """Oracle: Eq. (15) on the autodiff tape, differentiable in ``raw``."""
    squashed = sigmoid(mapping.raw)
    row_sums = tensor_sum(squashed, axis=1, keepdims=True)
    normalized = div(squashed, row_sums)
    if mapping.epsilon > 0:
        normalized = maximum_const(sub(normalized, Tensor(mapping.epsilon)), 0.0)
    return normalized


def explicit_structure_loss(mapping, embedding, batch: EdgeBatch) -> Tensor:
    """Oracle: Eq. (8) on the explicit ``(N, d)`` reconstruction ``M H'``."""
    reconstructed = matmul(as_tensor(mapping), as_tensor(embedding))
    logits = tensor_sum(mul(gather_rows(reconstructed, batch.rows),
                            gather_rows(reconstructed, batch.cols)), axis=1)
    return binary_cross_entropy_with_logits(logits, batch.targets)


def normalized_op(raw: Tensor, epsilon: float) -> Tensor:
    """Eq. (15) as a tape op whose backward is the closed-form VJP."""
    matrix, vjp = MappingMatrix(raw.data, epsilon=epsilon).normalized_with_vjp()
    return make_op(matrix, (raw,), lambda g: (Tensor(vjp(g.data)),), "eq15")


class TestGradientMatchingLoss:
    def test_zero_for_identical(self):
        grads = [Tensor(RNG.standard_normal((3, 2)))]
        assert gradient_matching_loss(grads, grads).item() == pytest.approx(
            0.0, abs=1e-6)

    def test_positive_for_different(self):
        a = [Tensor(RNG.standard_normal((3, 2)))]
        b = [Tensor(RNG.standard_normal((3, 2)))]
        assert gradient_matching_loss(a, b).item() > 0

    def test_original_side_detached(self):
        a = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        loss = gradient_matching_loss([a], [b])
        grads = grad(loss, [a, b], allow_unused=True)
        assert grads[0] is None       # detached
        assert grads[1] is not None   # synthetic side differentiable


class TestStructureLoss:
    def test_low_when_embeddings_predict_edges(self):
        # Two clusters; edges only within clusters; M = I so M H' = H'.
        h = Tensor(np.array([[5.0, 0], [5.0, 0], [0, 5.0], [0, 5.0]]))
        mapping = np.eye(4)
        good = EdgeBatch(rows=np.array([0, 2]), cols=np.array([1, 3]),
                         targets=np.array([1.0, 1.0]))
        bad = EdgeBatch(rows=np.array([0, 1]), cols=np.array([2, 3]),
                        targets=np.array([1.0, 1.0]))
        assert (structure_loss(mapping, h, good).item()
                < structure_loss(mapping, h, bad).item())

    def test_empty_batch_rejected(self):
        empty = EdgeBatch(rows=np.array([], dtype=int),
                          cols=np.array([], dtype=int), targets=np.array([]))
        with pytest.raises(CondensationError):
            structure_loss(np.eye(2), Tensor(np.ones((2, 2))), empty)

    def test_shape_mismatch_rejected(self):
        batch = EdgeBatch(rows=np.array([0]), cols=np.array([1]),
                          targets=np.array([1.0]))
        with pytest.raises(CondensationError):
            structure_loss(np.ones((4, 3)), Tensor(np.ones((2, 5))), batch)

    def test_differentiable_through_reconstruction(self):
        mapping = Tensor(RNG.random((4, 2)), requires_grad=True)
        h_syn = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        batch = EdgeBatch(rows=np.array([0, 1]), cols=np.array([2, 3]),
                          targets=np.array([1.0, 0.0]))
        loss = structure_loss(mapping, h_syn, batch)
        g_mapping, g_syn = grad(loss, [mapping, h_syn])
        assert g_mapping.shape == mapping.shape
        assert g_syn.shape == h_syn.shape

    def test_gram_form_matches_explicit_reconstruction(self):
        # repeated pairs and self-pairs, both signs of target
        rows = RNG.integers(0, 30, 64)
        cols = np.concatenate([RNG.integers(0, 30, 60), rows[:4]])
        batch = EdgeBatch(rows=rows, cols=cols,
                          targets=(RNG.random(64) < 0.5).astype(np.float64))
        mapping = Tensor(RNG.random((30, 6)), requires_grad=True)
        h_syn = Tensor(RNG.standard_normal((6, 5)), requires_grad=True)
        ours = structure_loss(mapping, h_syn, batch)
        ref = explicit_structure_loss(mapping, h_syn, batch)
        assert ours.item() == pytest.approx(ref.item(), rel=1e-12)
        for got, want in zip(grad(ours, [mapping, h_syn]),
                             grad(ref, [mapping, h_syn])):
            np.testing.assert_allclose(got.data, want.data, rtol=0,
                                       atol=1e-12 * np.abs(want.data).max())


class TestTransductiveInductiveLosses:
    def test_transductive_zero_for_exact_reconstruction(self):
        h_syn = RNG.standard_normal((3, 4))
        mapping = RNG.random((6, 3))
        h = mapping @ h_syn
        loss = transductive_loss(h, h_syn, Tensor(mapping))
        assert loss.item() == pytest.approx(0.0, abs=1e-4)

    def test_transductive_scales_inverse_n(self):
        h = RNG.standard_normal((10, 4))
        h_syn = RNG.standard_normal((3, 4))
        mapping = np.zeros((10, 3))
        full = transductive_loss(h, h_syn, Tensor(mapping)).item()
        manual = np.linalg.norm(h, axis=1).sum() / 10
        assert full == pytest.approx(manual, rel=1e-5)

    def test_transductive_shape_check(self):
        with pytest.raises(CondensationError):
            transductive_loss(np.ones((4, 2)), np.ones((3, 2)),
                              Tensor(np.ones((5, 3))))

    def test_transductive_differentiable_in_mapping_only(self):
        h = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        h_syn = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        mapping = Tensor(RNG.random((5, 2)), requires_grad=True)
        loss = transductive_loss(h, h_syn, mapping)
        grads = grad(loss, [h, h_syn, mapping], allow_unused=True)
        assert grads[0] is None and grads[1] is None
        assert grads[2] is not None

    def test_inductive_zero_for_identical(self):
        h = RNG.standard_normal((4, 3))
        assert inductive_loss(h, Tensor(h)).item() == pytest.approx(0.0, abs=1e-4)

    def test_inductive_shape_check(self):
        with pytest.raises(CondensationError):
            inductive_loss(np.ones((3, 2)), Tensor(np.ones((4, 2))))


class TestClassAwareInit:
    def test_block_structure(self):
        logits = class_aware_logits(np.array([0, 0, 1]), np.array([0, 1]),
                                    noise=0.0)
        assert logits[0, 0] > logits[0, 1]
        assert logits[2, 1] > logits[2, 0]

    def test_normalized_mass_concentrates_on_class(self):
        original = np.repeat(np.arange(5), 20)
        synthetic = np.repeat(np.arange(5), 3)
        mapping = MappingMatrix.class_aware(original, synthetic, seed=0)
        normalized = mapping.normalized_array()
        mass = class_block_mass(normalized, original, synthetic, 5)
        diag_share = np.diag(mass).sum() / mass.sum()
        assert diag_share > 0.7

    def test_many_classes_still_concentrated(self):
        original = np.repeat(np.arange(40), 5)
        synthetic = np.repeat(np.arange(40), 2)
        mapping = MappingMatrix.class_aware(original, synthetic, seed=0)
        normalized = mapping.normalized_array()
        first_class_mass = normalized[0][synthetic == original[0]].sum()
        assert first_class_mass / normalized[0].sum() > 0.85


class TestMappingMatrix:
    def make(self, n=8, k=3, seed=0):
        return MappingMatrix.random(n, k, seed=seed)

    def test_normalized_rows_near_one(self):
        mapping = self.make()
        rows = mapping.normalized_array().sum(axis=1)
        assert np.all(rows <= 1.0 + 1e-9)
        assert np.all(rows > 0.9)  # epsilon only trims a little

    def test_normalized_nonnegative(self):
        mapping = self.make()
        assert (mapping.normalized_array() >= 0).all()

    def test_normalized_tensor_matches_array(self):
        mapping = self.make()
        np.testing.assert_array_equal(taped_normalized(mapping).data,
                                      mapping.normalized_array())

    def test_epsilon_suppresses_small_entries(self):
        big_eps = MappingMatrix(np.zeros((2, 10)), epsilon=0.2)
        assert big_eps.normalized_array().sum() == 0.0  # uniform 0.1 < 0.2

    def test_normalized_differentiable(self):
        mapping = self.make()
        upstream = RNG.standard_normal(mapping.shape)
        (want,) = grad(tensor_sum(mul(taped_normalized(mapping),
                                      Tensor(upstream))), [mapping.raw])
        got = mapping.normalized_with_vjp()[1](upstream)
        assert got.shape == mapping.raw.shape
        np.testing.assert_allclose(got, want.data, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.data).max())

    @pytest.mark.parametrize("epsilon", [0.0, 1e-5, 0.12])
    def test_vjp_gradcheck(self, epsilon):
        # 0.12 sits inside the spread of row weights, so the ReLU mask
        # cuts some entries of every row
        raw = Tensor(RNG.standard_normal((5, 4)), requires_grad=True)
        weights = Tensor(RNG.standard_normal((5, 4)))
        assert gradcheck(
            lambda r: tensor_sum(mul(normalized_op(r, epsilon), weights)), [raw])

    def test_vjp_leaves_upstream_untouched(self):
        for epsilon in (0.0, 1e-5):
            mapping = MappingMatrix(RNG.standard_normal((4, 3)), epsilon=epsilon)
            upstream = RNG.standard_normal((4, 3))
            before = upstream.copy()
            mapping.normalized_with_vjp()[1](upstream)
            np.testing.assert_array_equal(upstream, before)

    def test_sparsify_threshold(self):
        matrix = np.array([[0.5, 0.001], [0.2, 0.0]])
        sparse = sparsify_matrix(matrix, 0.1)
        assert sparse.nnz == 2

    def test_sparsify_negative_threshold_rejected(self):
        with pytest.raises(CondensationError):
            sparsify_matrix(np.eye(2), -0.1)

    def test_sparsified_nnz_monotone_in_delta(self):
        mapping = self.make(n=20, k=5)
        kept = [mapping.sparsified(d).nnz for d in (0.0, 0.05, 0.1, 0.3)]
        assert all(b <= a for a, b in zip(kept, kept[1:]))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(CondensationError):
            MappingMatrix(np.zeros(5))
        with pytest.raises(CondensationError):
            MappingMatrix(np.zeros((2, 2)), epsilon=-1.0)

    def test_raw_is_trainable_parameter(self):
        mapping = self.make()
        assert mapping.raw.requires_grad
        assert len(mapping.parameters()) == 1


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float64, (4, 3),
                  elements=st.floats(-5, 5, allow_nan=False)))
def test_normalization_row_bound_property(logits):
    mapping = MappingMatrix(logits, epsilon=1e-5)
    normalized = mapping.normalized_array()
    assert (normalized >= 0).all()
    assert (normalized.sum(axis=1) <= 1.0 + 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.5))
def test_sparsify_never_increases_values(threshold):
    matrix = np.abs(RNG.standard_normal((5, 5)))
    sparse = sparsify_matrix(matrix, threshold).toarray()
    assert (sparse <= matrix + 1e-12).all()
    kept = sparse > 0
    assert np.allclose(sparse[kept], matrix[kept])
