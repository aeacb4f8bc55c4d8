"""Composite functions: softmax, losses, norms, cosine distances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    cosine_similarity_columns,
    cross_entropy,
    gradcheck,
    gradient_cosine_distance,
    l21_norm,
    l2_row_norms,
    log_softmax,
    one_hot,
    softmax,
)

RNG = np.random.default_rng(2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((5, 4)))
        assert np.allclose(softmax(x).data.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        x = RNG.standard_normal((3, 4))
        assert np.allclose(softmax(Tensor(x)).data,
                           softmax(Tensor(x + 100.0)).data)

    def test_large_logits_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0]]))
        out = softmax(x).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.standard_normal((4, 6)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_softmax_gradcheck(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 4)))
        from repro.tensor import mul, tensor_sum
        gradcheck(lambda x: tensor_sum(mul(softmax(x), w)), [x])


class TestOneHot:
    def test_one_hot_values(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        assert np.allclose(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([3]), 3)

    def test_negative_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([-1]), 3)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_c(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3))

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        labels = RNG.integers(0, 3, size=5)
        gradcheck(lambda z: cross_entropy(z, labels), [logits])

    def test_weighted_matches_manual(self):
        logits = Tensor(RNG.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 1])
        weights = np.array([1.0, 0.0, 2.0, 1.0])
        weighted = cross_entropy(logits, labels, weights=weights).item()
        probs = np.exp(log_softmax(logits).data)
        per = -np.log(probs[np.arange(4), labels])
        assert weighted == pytest.approx((per * weights).sum() / weights.sum())

    def test_rejects_1d_logits(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(3)), np.array([0]))


class TestBceWithLogits:
    def test_matches_reference(self):
        logits = RNG.standard_normal(10)
        targets = RNG.integers(0, 2, size=10).astype(float)
        loss = binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert loss == pytest.approx(expected)

    def test_extreme_logits_stable(self):
        loss = binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal(8), requires_grad=True)
        targets = RNG.integers(0, 2, size=8).astype(float)
        gradcheck(lambda z: binary_cross_entropy_with_logits(z, targets), [logits])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            binary_cross_entropy_with_logits(Tensor(np.zeros(3)), np.zeros(4))


class TestNorms:
    def test_l2_row_norms(self):
        x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
        norms = l2_row_norms(x, eps=0.0).data
        assert norms[0] == pytest.approx(5.0)
        assert norms[1] == pytest.approx(0.0)

    def test_l21_is_sum_of_row_norms(self):
        x = RNG.standard_normal((6, 3))
        expected = np.linalg.norm(x, axis=1).sum()
        assert l21_norm(Tensor(x)).item() == pytest.approx(expected, rel=1e-6)

    def test_l21_gradcheck(self):
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        gradcheck(lambda x: l21_norm(x, eps=1e-10), [x], atol=1e-4)

    def test_l2_rows_rejects_1d(self):
        with pytest.raises(ShapeError):
            l2_row_norms(Tensor(np.zeros(3)))


class TestCosine:
    def test_identical_columns_give_one(self):
        x = Tensor(RNG.standard_normal((5, 3)))
        sims = cosine_similarity_columns(x, x).data
        assert np.allclose(sims, 1.0, atol=1e-6)

    def test_opposite_columns_give_minus_one(self):
        x = Tensor(RNG.standard_normal((5, 3)))
        sims = cosine_similarity_columns(x, Tensor(-x.data)).data
        assert np.allclose(sims, -1.0, atol=1e-6)

    def test_orthogonal_columns_near_zero(self):
        a = Tensor(np.array([[1.0], [0.0]]))
        b = Tensor(np.array([[0.0], [1.0]]))
        assert cosine_similarity_columns(a, b).data[0] == pytest.approx(0.0, abs=1e-4)

    def test_1d_inputs_treated_as_single_column(self):
        a = Tensor(np.array([1.0, 0.0]))
        assert cosine_similarity_columns(a, a).shape == (1,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cosine_similarity_columns(Tensor(np.ones((2, 2))),
                                      Tensor(np.ones((3, 2))))

    def test_gradient_distance_zero_for_identical(self):
        g = [Tensor(RNG.standard_normal((4, 3)))]
        assert gradient_cosine_distance(g, g).item() == pytest.approx(0.0, abs=1e-5)

    def test_gradient_distance_positive_and_bounded(self):
        a = [Tensor(RNG.standard_normal((4, 3)))]
        b = [Tensor(RNG.standard_normal((4, 3)))]
        value = gradient_cosine_distance(a, b).item()
        assert 0.0 <= value <= 2.0 * 3  # (1 - cos) in [0, 2] per column

    def test_gradient_distance_mismatched_lists(self):
        with pytest.raises(ShapeError):
            gradient_cosine_distance([Tensor(np.ones(2))], [])

    def test_gradient_distance_differentiable(self):
        a = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        target = [Tensor(RNG.standard_normal((4, 3)))]
        gradcheck(lambda a: gradient_cosine_distance([a], target), [a])
