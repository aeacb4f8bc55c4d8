"""Hypothesis property tests for the autodiff engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import (
    Tensor,
    add,
    gradcheck,
    l21_norm,
    matmul,
    mul,
    relu,
    sigmoid,
    softmax,
    sum_to,
    tensor_sum,
)

FLOATS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


def arrays(*shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


@settings(max_examples=25, deadline=None)
@given(arrays(3, 4))
def test_softmax_rows_are_distributions(data):
    out = softmax(Tensor(data)).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0)


@settings(max_examples=25, deadline=None)
@given(arrays(4, 3), arrays(4, 3))
def test_addition_commutes(a, b):
    assert np.allclose(add(Tensor(a), Tensor(b)).data,
                       add(Tensor(b), Tensor(a)).data)


@settings(max_examples=25, deadline=None)
@given(arrays(3, 3), arrays(3, 3), arrays(3, 3))
def test_matmul_distributes_over_addition(a, b, c):
    left = matmul(Tensor(a), add(Tensor(b), Tensor(c))).data
    right = (matmul(Tensor(a), Tensor(b)) + matmul(Tensor(a), Tensor(c))).data
    assert np.allclose(left, right, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(arrays(2, 5))
def test_relu_idempotent(data):
    once = relu(Tensor(data)).data
    twice = relu(relu(Tensor(data))).data
    assert np.allclose(once, twice)


@settings(max_examples=25, deadline=None)
@given(arrays(4,))
def test_sigmoid_bounded_and_monotone(data):
    ordered = np.sort(data)
    out = sigmoid(Tensor(ordered)).data
    assert np.all((out > 0) & (out < 1))
    assert np.all(np.diff(out) >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(arrays(1, 4))
def test_sum_to_reverses_row_broadcast(data):
    broadcast = add(Tensor(data), Tensor(np.zeros((5, 4))))
    assert np.allclose(sum_to(broadcast, (1, 4)).data, 5 * data)


@settings(max_examples=25, deadline=None)
@given(arrays(3, 2))
def test_l21_triangle_inequality(data):
    other = np.ones_like(data)
    combined = l21_norm(Tensor(data + other)).item()
    separate = l21_norm(Tensor(data)).item() + l21_norm(Tensor(other)).item()
    assert combined <= separate + 1e-6


@settings(max_examples=15, deadline=None)
@given(arrays(3, 3))
def test_random_expression_gradcheck(data):
    x = Tensor(data + 0.05, requires_grad=True)
    gradcheck(lambda x: tensor_sum(mul(sigmoid(x), add(x, Tensor(1.0)))), [x],
              atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(arrays(4, 4))
def test_sum_linear_in_input(data):
    x = Tensor(data)
    assert np.isclose(tensor_sum(mul(x, Tensor(2.0))).item(),
                      2 * tensor_sum(x).item())
