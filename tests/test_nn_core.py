"""Module system, layers, initializers, the optimizer, metrics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigError, ShapeError
from repro.nn import (
    Adam,
    APPNPPropagate,
    ChebConv,
    GCNConv,
    Linear,
    Module,
    Parameter,
    SAGEConv,
    accuracy,
    glorot_uniform,
    predictions_from_logits,
    propagate,
)
from repro.tensor import Tensor, tensor_sum

RNG = np.random.default_rng(4)


class TestModuleSystem:
    def test_parameter_registration(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.ones((2, 2)))
                self.child = Linear(2, 3, RNG)

        net = Net()
        names = [name for name, _ in net.named_parameters()]
        assert "weight" in names
        assert "child.weight" in names and "child.bias" in names
        assert len(net.parameters()) == 3

    def test_state_dict_roundtrip(self):
        layer = Linear(3, 2, RNG)
        state = layer.state_dict()
        layer.weight.data[...] = 0.0
        layer.load_state_dict(state)
        assert np.allclose(layer.weight.data, state["weight"])

    def test_state_dict_missing_key_rejected(self):
        layer = Linear(2, 2, RNG)
        with pytest.raises(ShapeError):
            layer.load_state_dict({"weight": np.zeros((2, 2))})

    def test_state_dict_shape_mismatch_rejected(self):
        layer = Linear(2, 2, RNG)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            layer.load_state_dict(state)

    def test_train_eval_propagates(self):
        conv = GCNConv(2, 2, RNG)
        assert len(list(conv.modules())) == 2
        conv.eval()
        assert all(not m.training for m in conv.modules())
        conv.train()
        assert all(m.training for m in conv.modules())

    def test_zero_grad(self):
        layer = Linear(2, 2, RNG)
        out = tensor_sum(layer(Tensor(np.ones((1, 2)))))
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestInit:
    def test_glorot_bounds(self):
        w = glorot_uniform((100, 100), RNG)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit

    def test_glorot_rejects_1d(self):
        with pytest.raises(ShapeError):
            glorot_uniform((5,), RNG)


class TestLayers:
    def test_propagate_dispatch_sparse_dense_equal(self):
        dense = RNG.random((4, 4))
        h = Tensor(RNG.standard_normal((4, 3)))
        from_sparse = propagate(sp.csr_matrix(dense), h).data
        from_tensor = propagate(Tensor(dense), h).data
        from_array = propagate(dense, h).data
        assert np.allclose(from_sparse, from_tensor)
        assert np.allclose(from_sparse, from_array)

    def test_linear_shapes(self):
        layer = Linear(3, 5, RNG)
        out = layer(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 5)

    def test_linear_invalid_dims(self):
        with pytest.raises(ShapeError):
            Linear(0, 2, RNG)

    def test_gcn_conv(self):
        conv = GCNConv(3, 4, RNG)
        out = conv(Tensor(np.eye(5)), Tensor(np.ones((5, 3))))
        assert out.shape == (5, 4)

    def test_sage_conv_uses_self_and_neighbors(self):
        conv = SAGEConv(2, 3, RNG)
        op = Tensor(np.zeros((4, 4)))  # no neighbors: output = W_self x only
        x = Tensor(RNG.standard_normal((4, 2)))
        out = conv(op, x)
        assert out.shape == (4, 3)

    def test_cheby_order_one_is_linear(self):
        conv = ChebConv(2, 2, 1, RNG)
        x = Tensor(RNG.standard_normal((3, 2)))
        out_zero_op = conv(Tensor(np.zeros((3, 3))), x)
        out_eye_op = conv(Tensor(np.eye(3)), x)
        assert np.allclose(out_zero_op.data, out_eye_op.data)

    def test_cheby_invalid_order(self):
        with pytest.raises(ShapeError):
            ChebConv(2, 2, 0, RNG)

    def test_appnp_alpha_one_limit_validation(self):
        with pytest.raises(ShapeError):
            APPNPPropagate(3, 1.0)
        with pytest.raises(ShapeError):
            APPNPPropagate(0, 0.5)

    def test_appnp_zero_operator_returns_alpha_scaled(self):
        prop = APPNPPropagate(5, 0.2)
        x = Tensor(np.ones((3, 2)))
        out = prop(Tensor(np.zeros((3, 3))), x)
        assert np.allclose(out.data, 0.2)


class TestOptimizers:
    @staticmethod
    def quadratic_target(optimizer_factory, steps=200):
        param = Parameter(np.array([5.0, -3.0]))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            loss = tensor_sum((param - Tensor([1.0, 2.0])) ** 2)
            loss.backward()
            optimizer.step()
        return param.data

    def test_adam_converges(self):
        final = self.quadratic_target(lambda p: Adam(p, lr=0.3))
        assert np.allclose(final, [1.0, 2.0], atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        plain = self.quadratic_target(lambda p: Adam(p, lr=0.3))
        decayed = self.quadratic_target(
            lambda p: Adam(p, lr=0.3, weight_decay=1.0))
        assert np.linalg.norm(decayed) < np.linalg.norm(plain)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.3])
    def test_adam_in_place_matches_allocating_step(self, weight_decay):
        rng = np.random.default_rng(11)
        start = rng.standard_normal((6, 4))
        grads = [rng.standard_normal((6, 4)) for _ in range(5)]
        lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8

        # the allocating update, written out once per step
        want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for step, g in enumerate(grads, start=1):
            g = g + weight_decay * want if weight_decay else g
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            update = ((m / (1.0 - beta1 ** step))
                      / (np.sqrt(v / (1.0 - beta2 ** step)) + eps))
            want -= lr * update

        param = Parameter(start.copy())
        optimizer = Adam([param], lr=lr, weight_decay=weight_decay)
        moments = None
        for g in grads:
            optimizer.apply_grads([Tensor(g)])
            optimizer.step()
            current = (optimizer._first[id(param)], optimizer._second[id(param)])
            if moments is not None:
                assert all(a is b for a, b in zip(current, moments))
            moments = current
        np.testing.assert_array_equal(param.data, want)
        np.testing.assert_array_equal(moments[0], m)
        np.testing.assert_array_equal(moments[1], v)

    def test_skip_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        optimizer = Adam([a, b], lr=0.5)
        tensor_sum(a * a).backward()
        optimizer.step()
        assert np.allclose(b.data, 1.0)
        assert not np.allclose(a.data, 1.0)

    def test_apply_grads(self):
        param = Parameter(np.zeros(2))
        optimizer = Adam([param], lr=1.0)
        optimizer.apply_grads([Tensor(np.array([1.0, 2.0]))])
        optimizer.step()
        # Adam's first bias-corrected step is lr * sign(g)
        assert np.allclose(param.data, [-1.0, -1.0])

    def test_apply_grads_length_mismatch(self):
        optimizer = Adam([Parameter(np.zeros(2))], lr=1.0)
        with pytest.raises(ConfigError):
            optimizer.apply_grads([])

    def test_invalid_hyperparameters(self):
        p = [Parameter(np.zeros(1))]
        with pytest.raises(ConfigError):
            Adam(p, lr=-1.0)
        with pytest.raises(ConfigError):
            Adam(p, lr=0.1, weight_decay=-1.0)
        with pytest.raises(ConfigError):
            Adam(p, betas=(1.2, 0.9))
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)


class TestMetrics:
    def test_accuracy_from_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_from_predictions(self):
        assert accuracy(np.array([1, 0]), np.array([1, 1])) == 0.5

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ShapeError):
            accuracy(np.empty((0,)), np.empty((0,)))

    def test_predictions_require_2d(self):
        with pytest.raises(ShapeError):
            predictions_from_logits(np.ones(3))
