"""Gradient checks and semantics for every autodiff primitive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    abs_,
    add,
    concat,
    div,
    dropout,
    exp,
    gather_rows,
    gradcheck,
    log,
    matmul,
    maximum_const,
    mul,
    neg,
    power,
    relu,
    reshape,
    scatter_rows_add,
    sigmoid,
    slice_rows,
    sqrt,
    sub,
    sum_to,
    tensor_mean,
    tensor_sum,
    transpose,
)

RNG = np.random.default_rng(0)


def t(shape, positive=False):
    data = RNG.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestElementwise:
    def test_add_forward(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.allclose(add(a, b).data, [4.0, 6.0])

    def test_add_gradcheck(self):
        a, b = t((3, 4)), t((3, 4))
        gradcheck(lambda a, b: tensor_sum(mul(add(a, b), add(a, b))), [a, b])

    def test_add_broadcast_gradcheck(self):
        a, b = t((3, 4)), t((4,))
        gradcheck(lambda a, b: tensor_sum(mul(add(a, b), add(a, b))), [a, b])

    def test_add_broadcast_scalar(self):
        a = t((2, 2))
        b = Tensor(2.0, requires_grad=True)
        gradcheck(lambda a, b: tensor_sum(add(a, b)), [a, b])

    def test_sub_gradcheck(self):
        a, b = t((2, 5)), t((2, 5))
        gradcheck(lambda a, b: tensor_sum(mul(sub(a, b), sub(a, b))), [a, b])

    def test_mul_gradcheck(self):
        a, b = t((4, 3)), t((4, 3))
        gradcheck(lambda a, b: tensor_sum(mul(a, b)), [a, b])

    def test_mul_broadcast_column(self):
        a, b = t((4, 3)), t((4, 1))
        gradcheck(lambda a, b: tensor_sum(mul(a, b)), [a, b])

    def test_div_gradcheck(self):
        a, b = t((3, 3)), t((3, 3), positive=True)
        gradcheck(lambda a, b: tensor_sum(div(a, b)), [a, b])

    def test_div_forward(self):
        out = div(Tensor([6.0, 9.0]), Tensor([2.0, 3.0]))
        assert np.allclose(out.data, [3.0, 3.0])

    def test_neg(self):
        a = t((2, 3))
        gradcheck(lambda a: tensor_sum(mul(neg(a), neg(a))), [a])

    def test_power_gradcheck(self):
        a = t((3, 3), positive=True)
        gradcheck(lambda a: tensor_sum(power(a, 3.0)), [a])

    def test_power_negative_exponent(self):
        a = t((3,), positive=True)
        gradcheck(lambda a: tensor_sum(power(a, -0.5)), [a])

    def test_exp_gradcheck(self):
        a = t((2, 4))
        gradcheck(lambda a: tensor_sum(exp(a)), [a])

    def test_log_gradcheck(self):
        a = t((2, 4), positive=True)
        gradcheck(lambda a: tensor_sum(log(a)), [a])

    def test_sqrt_matches_numpy(self):
        a = Tensor([4.0, 9.0])
        assert np.allclose(sqrt(a).data, [2.0, 3.0])

    def test_relu_gradcheck(self):
        a = Tensor(RNG.standard_normal((4, 4)) + 0.1, requires_grad=True)
        gradcheck(lambda a: tensor_sum(relu(a)), [a])

    def test_relu_zeroes_negatives(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_gradcheck(self):
        a = t((3, 3))
        gradcheck(lambda a: tensor_sum(sigmoid(a)), [a])

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[1] == pytest.approx(1.0)

    def test_sigmoid_bitwise_equal_to_masked_form(self):
        def masked(x):
            # the boolean gather/scatter form the where() form replaced
            out = np.empty_like(x)
            positive = x >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            e = np.exp(x[~positive])
            out[~positive] = e / (1.0 + e)
            return out

        special = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0,
                            np.inf, -np.inf, np.nan, 1e-300, -1e-300])
        x = np.concatenate([special, 40.0 * RNG.standard_normal(4000)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(Tensor(x)).data
        np.testing.assert_array_equal(got, masked(x))

    def test_abs_gradcheck(self):
        a = Tensor(RNG.standard_normal((3, 3)) + 0.2, requires_grad=True)
        gradcheck(lambda a: tensor_sum(abs_(a)), [a])

    def test_maximum_const(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        out = maximum_const(a, 0.0)
        assert np.allclose(out.data, [0.0, 0.5, 3.0])
        gradcheck(lambda a: tensor_sum(mul(maximum_const(a, 0.0),
                                           maximum_const(a, 0.0))), [a])


class TestMatmulAndShapes:
    def test_matmul_2d_gradcheck(self):
        a, b = t((3, 4)), t((4, 2))
        gradcheck(lambda a, b: tensor_sum(matmul(a, b)), [a, b])

    def test_matmul_vector_matrix(self):
        a, b = t((4,)), t((4, 3))
        gradcheck(lambda a, b: tensor_sum(matmul(a, b)), [a, b])

    def test_matmul_matrix_vector(self):
        a, b = t((3, 4)), t((4,))
        gradcheck(lambda a, b: tensor_sum(matmul(a, b)), [a, b])

    def test_matmul_vector_vector(self):
        a, b = t((5,)), t((5,))
        gradcheck(lambda a, b: matmul(a, b), [a, b])

    def test_matmul_rank3_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))

    def test_transpose_roundtrip(self):
        a = t((3, 5))
        assert np.allclose(transpose(transpose(a)).data, a.data)

    def test_transpose_gradcheck(self):
        a = t((2, 4))
        gradcheck(lambda a: tensor_sum(mul(transpose(a), transpose(a))), [a])

    def test_reshape_gradcheck(self):
        a = t((2, 6))
        gradcheck(lambda a: tensor_sum(mul(reshape(a, (3, 4)),
                                           reshape(a, (3, 4)))), [a])

    def test_reshape_preserves_data(self):
        a = Tensor(np.arange(6.0))
        assert np.allclose(a.reshape(2, 3).data, np.arange(6.0).reshape(2, 3))


class TestReductions:
    def test_sum_all(self):
        a = t((3, 4))
        assert tensor_sum(a).item() == pytest.approx(a.data.sum())

    def test_sum_axis0_gradcheck(self):
        a = t((3, 4))
        gradcheck(lambda a: tensor_sum(mul(tensor_sum(a, axis=0),
                                           tensor_sum(a, axis=0))), [a])

    def test_sum_axis1_keepdims(self):
        a = t((3, 4))
        out = tensor_sum(a, axis=1, keepdims=True)
        assert out.shape == (3, 1)
        gradcheck(lambda a: tensor_sum(mul(tensor_sum(a, axis=1, keepdims=True),
                                           tensor_sum(a, axis=1, keepdims=True))), [a])

    def test_sum_negative_axis(self):
        a = t((2, 3))
        assert tensor_sum(a, axis=-1).shape == (2,)

    def test_mean_matches_numpy(self):
        a = t((4, 5))
        assert tensor_mean(a).item() == pytest.approx(a.data.mean())

    def test_mean_axis_gradcheck(self):
        a = t((4, 5))
        gradcheck(lambda a: tensor_sum(mul(tensor_mean(a, axis=0),
                                           tensor_mean(a, axis=0))), [a])

    def test_sum_to_inverse_of_broadcast(self):
        a = t((1, 4))
        broadcast = add(a, Tensor(np.zeros((3, 4))))
        reduced = sum_to(broadcast, (1, 4))
        assert reduced.shape == (1, 4)
        assert np.allclose(reduced.data, 3 * a.data)

    def test_sum_to_invalid_shape(self):
        with pytest.raises(ShapeError):
            sum_to(Tensor(np.ones((2, 2))), (2, 2, 2))


class TestGatherScatterSlice:
    def test_gather_rows_forward(self):
        a = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather_rows(a, np.array([2, 0]))
        assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gather_rows_duplicates_gradcheck(self):
        a = t((4, 3))
        idx = np.array([0, 0, 2, 3])
        gradcheck(lambda a: tensor_sum(mul(gather_rows(a, idx),
                                           gather_rows(a, idx))), [a])

    def test_gather_rejects_2d_indices(self):
        with pytest.raises(ShapeError):
            gather_rows(Tensor(np.ones((3, 2))), np.ones((2, 2), dtype=int))

    def test_scatter_rows_add_accumulates(self):
        a = Tensor(np.ones((3, 2)))
        out = scatter_rows_add(a, np.array([1, 1, 0]), (4, 2))
        assert np.allclose(out.data, [[1, 1], [2, 2], [0, 0], [0, 0]])

    @pytest.mark.parametrize("indices, shape", [
        ([3, 0, 4, 1], (5, 3)),                 # unsorted, distinct
        ([2, 0, 2, 2, 4, 0, 2], (6, 3)),        # unsorted, duplicated
        ([], (4, 3)),                           # empty
        ([2, 0, -1], (4,)),                     # 1-D, distinct, negative index
        ([1, 3, 1, -1], (4,)),                  # 1-D, duplicated
        (list(np.random.default_rng(1).integers(0, 50, 256)), (50, 16)),
    ])
    def test_scatter_rows_add_bitwise_equals_add_at(self, indices, shape):
        idx = np.asarray(indices, dtype=np.int64)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((idx.size,) + shape[1:]) * 1e3
        values[rng.random(values.shape) < 0.2] = -0.0
        expected = np.zeros(shape)
        np.add.at(expected, idx, values)
        out = scatter_rows_add(Tensor(values), idx, shape)
        assert out.shape == shape
        assert np.array_equal(out.data, expected)
        assert out.data.tobytes() == expected.tobytes()  # signed zeros too

    def test_scatter_rows_add_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            scatter_rows_add(Tensor(np.ones((2, 2))), np.array([0, 3]), (3, 2))

    def test_scatter_gradcheck(self):
        a = t((3, 2))
        idx = np.array([1, 1, 0])
        gradcheck(lambda a: tensor_sum(mul(scatter_rows_add(a, idx, (4, 2)),
                                           scatter_rows_add(a, idx, (4, 2)))), [a])

    def test_concat_axis0(self):
        a, b = t((2, 3)), t((4, 3))
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        gradcheck(lambda a, b: tensor_sum(mul(concat([a, b], axis=0),
                                              concat([a, b], axis=0))), [a, b])

    def test_concat_axis1_gradcheck(self):
        a, b = t((3, 2)), t((3, 5))
        gradcheck(lambda a, b: tensor_sum(mul(concat([a, b], axis=1),
                                              concat([a, b], axis=1))), [a, b])

    def test_concat_empty_rejected(self):
        with pytest.raises(ShapeError):
            concat([], axis=0)

    def test_slice_rows(self):
        a = t((6, 3))
        out = slice_rows(a, 2, 5)
        assert out.shape == (3, 3)
        assert np.allclose(out.data, a.data[2:5])
        gradcheck(lambda a: tensor_sum(mul(slice_rows(a, 2, 5),
                                           slice_rows(a, 2, 5))), [a])


class TestDropout:
    def test_dropout_eval_is_identity(self):
        a = t((10, 10))
        out = dropout(a, 0.5, training=False)
        assert out is a

    def test_dropout_zero_rate_identity(self):
        a = t((4, 4))
        assert dropout(a, 0.0) is a

    def test_dropout_scales_surviving_entries(self):
        rng = np.random.default_rng(0)
        a = Tensor(np.ones((100, 100)))
        out = dropout(a, 0.5, rng=rng).data
        surviving = out[out > 0]
        assert np.allclose(surviving, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6

    def test_dropout_invalid_rate(self):
        with pytest.raises(ShapeError):
            dropout(Tensor(np.ones(3)), 1.0)
