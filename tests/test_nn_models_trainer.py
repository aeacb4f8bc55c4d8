"""GNN models and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.models
from repro.errors import ConfigError
from repro.graph import symmetric_normalize
from repro.nn import (
    MODELS,
    Adam,
    TrainConfig,
    TrainResult,
    evaluate_accuracy,
    evaluate_logits,
    make_model,
    train_node_classifier,
)
from repro.tensor import Tensor, cross_entropy, gather_rows

ALL_MODELS = sorted(MODELS)


def _per_epoch_oracle(model, operator, features, labels, train_idx,
                      validator=None, config=None) -> TrainResult:
    """The reference loop: ``model(operator, x)`` every epoch, for every
    model — what :func:`train_node_classifier` must reproduce bitwise."""
    config = config or TrainConfig()
    train_idx = np.asarray(train_idx, dtype=np.int64)
    x = Tensor(np.asarray(features, dtype=np.float64))
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    best_score, best_epoch, best_state, stale = -np.inf, -1, None, 0
    result = TrainResult(best_score=-np.inf, best_epoch=-1, epochs_run=0)
    for epoch in range(config.epochs):
        model.train()
        optimizer.zero_grad()
        logits = model(operator, x)
        loss = cross_entropy(gather_rows(logits, train_idx), labels[train_idx])
        loss.backward()
        optimizer.step()
        loss_value = loss.item()
        result.losses.append(loss_value)
        result.epochs_run = epoch + 1
        if (epoch + 1) % config.eval_every:
            continue
        if validator is not None:
            model.eval()
            score = float(validator(model))
        else:
            score = -loss_value
        result.scores.append(score)
        if score > best_score:
            best_score, best_epoch, stale = score, epoch, 0
            best_state = model.state_dict()
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    result.best_score = best_score
    result.best_epoch = best_epoch
    return result


@pytest.fixture(scope="module")
def operator(tiny_split_module):
    return symmetric_normalize(tiny_split_module.original.adjacency)


@pytest.fixture(scope="module")
def tiny_split_module():
    from repro.graph import load_dataset
    return load_dataset("tiny-sim", seed=11, scale=0.5)


class TestModelForward:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_forward_shapes(self, name, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model(name, graph.feature_dim,
                           tiny_split_module.num_classes, seed=0, **(
                               {} if name == "sgc" else {"hidden": 8}))
        logits = model(operator, Tensor(graph.features))
        assert logits.shape == (graph.num_nodes, tiny_split_module.num_classes)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_embed_row_count(self, name, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model(name, graph.feature_dim,
                           tiny_split_module.num_classes, seed=0, **(
                               {} if name == "sgc" else {"hidden": 8}))
        embedding = model.embed(operator, Tensor(graph.features))
        assert embedding.shape[0] == graph.num_nodes

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            make_model("transformer", 4, 2)

    def test_sgc_embed_is_propagation(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim,
                           tiny_split_module.num_classes, k_hops=2)
        embedding = model.embed(operator, Tensor(graph.features)).data
        expected = operator @ (operator @ graph.features)
        assert np.allclose(embedding, expected)

    def test_mlp_ignores_operator(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("mlp", graph.feature_dim,
                           tiny_split_module.num_classes, hidden=8)
        model.eval()
        with_op = model(operator, Tensor(graph.features)).data
        without = model(np.zeros((graph.num_nodes, graph.num_nodes)),
                        Tensor(graph.features)).data
        assert np.allclose(with_op, without)

    def test_dropout_active_only_in_training(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("gcn", graph.feature_dim,
                           tiny_split_module.num_classes, hidden=8,
                           dropout_rate=0.5)
        model.eval()
        a = model(operator, Tensor(graph.features)).data
        b = model(operator, Tensor(graph.features)).data
        assert np.allclose(a, b)
        model.train()
        c = model(operator, Tensor(graph.features)).data
        d = model(operator, Tensor(graph.features)).data
        assert not np.allclose(c, d)

    def test_invalid_dropout_rejected(self):
        with pytest.raises(ConfigError):
            make_model("gcn", 4, 2, dropout_rate=1.0)

    def test_gcn_needs_two_layers(self):
        with pytest.raises(ConfigError):
            make_model("gcn", 4, 2, num_layers=1)


class TestTrainer:
    def test_training_reduces_loss(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim,
                           tiny_split_module.num_classes, seed=0)
        result = train_node_classifier(
            model, operator, graph.features, graph.labels,
            tiny_split_module.labeled_in_original,
            config=TrainConfig(epochs=30, patience=30))
        assert result.losses[-1] < result.losses[0]

    def test_validator_drives_best_restore(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim,
                           tiny_split_module.num_classes, seed=0)
        scores = iter([0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        snapshots = []

        def validator(m):
            snapshots.append(m.state_dict())
            return next(scores)

        result = train_node_classifier(
            model, operator, graph.features, graph.labels,
            tiny_split_module.labeled_in_original, validator=validator,
            config=TrainConfig(epochs=10, patience=3, eval_every=1))
        assert result.best_epoch == 0
        assert result.epochs_run == 4  # stopped after patience exhausted
        # Weights restored to the best (first) snapshot.
        for name, value in model.state_dict().items():
            assert np.allclose(value, snapshots[0][name])

    def test_empty_train_idx_rejected(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim, tiny_split_module.num_classes)
        with pytest.raises(ConfigError):
            train_node_classifier(model, operator, graph.features,
                                  graph.labels, np.array([], dtype=int))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)

    def test_training_beats_chance(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim,
                           tiny_split_module.num_classes, seed=0)
        train_node_classifier(model, operator, graph.features, graph.labels,
                              tiny_split_module.labeled_in_original,
                              config=TrainConfig(epochs=60, patience=60, lr=0.05))
        acc = evaluate_accuracy(model, operator, graph.features, graph.labels)
        assert acc > 0.6

    def test_evaluate_logits_shape(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim, tiny_split_module.num_classes)
        logits = evaluate_logits(model, operator, graph.features)
        assert logits.shape == (graph.num_nodes, tiny_split_module.num_classes)

    def test_evaluate_accuracy_subset(self, tiny_split_module, operator):
        graph = tiny_split_module.original
        model = make_model("sgc", graph.feature_dim, tiny_split_module.num_classes)
        subset = np.arange(10)
        value = evaluate_accuracy(model, operator, graph.features,
                                  graph.labels, subset)
        assert 0.0 <= value <= 1.0


@pytest.fixture(params=["sparse-original", "dense-synthetic"])
def training_graph(request, tiny_split_module, operator, tiny_condensed):
    """``(operator, features, labels, train_idx, num_classes)`` of a
    sparse original-graph operator or a dense synthetic one."""
    if request.param == "sparse-original":
        graph = tiny_split_module.original
        return (operator, graph.features, graph.labels,
                tiny_split_module.labeled_in_original,
                tiny_split_module.num_classes)
    return (tiny_condensed.normalized_adjacency(), tiny_condensed.features,
            tiny_condensed.labels, np.arange(tiny_condensed.num_nodes),
            int(tiny_condensed.labels.max()) + 1)


class TestSGCPropagatesOncePerRun:
    """SGC trains its head on ``Â^K X`` propagated once; the trajectory
    stays bitwise that of re-propagating every epoch."""

    CONFIG = TrainConfig(epochs=40, lr=0.05, patience=5, eval_every=2)

    @pytest.mark.parametrize("validated", [False, True],
                             ids=["loss-driven", "validated"])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_matches_per_epoch_oracle(self, training_graph, dropout_rate,
                                      validated):
        op, features, labels, train_idx, num_classes = training_graph

        def run(train):
            model = make_model("sgc", features.shape[1], num_classes, seed=5,
                               dropout_rate=dropout_rate)
            validator = None
            if validated:
                def validator(m):
                    return evaluate_accuracy(m, op, features, labels)
            result = train(model, op, features, labels, train_idx,
                           validator=validator, config=self.CONFIG)
            return model, result

        model, result = run(train_node_classifier)
        oracle_model, oracle = run(_per_epoch_oracle)
        state, oracle_state = model.state_dict(), oracle_model.state_dict()
        assert state.keys() == oracle_state.keys()
        for name in state:
            assert np.array_equal(state[name], oracle_state[name]), name
        assert result.losses == oracle.losses
        assert result.scores == oracle.scores
        assert result.best_score == oracle.best_score
        assert result.best_epoch == oracle.best_epoch
        assert result.epochs_run == oracle.epochs_run

    def test_propagates_k_hops_times_per_run(self, training_graph,
                                             monkeypatch):
        op, features, labels, train_idx, num_classes = training_graph
        calls = []
        original = repro.nn.models.propagate

        def counting(operator, h):
            calls.append(operator)
            return original(operator, h)

        # SGC.embed reaches repro.nn.layers.propagate through this import
        monkeypatch.setattr(repro.nn.models, "propagate", counting)
        model = make_model("sgc", features.shape[1], num_classes, k_hops=3)
        result = train_node_classifier(
            model, op, features, labels, train_idx,
            config=TrainConfig(epochs=15, patience=15))
        assert result.epochs_run == 15
        assert len(calls) == 3

    def test_gcn_still_runs_forward_every_epoch(self, tiny_split_module,
                                                operator, monkeypatch):
        graph = tiny_split_module.original
        model = make_model("gcn", graph.feature_dim,
                           tiny_split_module.num_classes, hidden=8)
        calls = []
        original = model.forward

        def counting(op, x):
            calls.append(op)
            return original(op, x)

        monkeypatch.setattr(model, "forward", counting)
        result = train_node_classifier(
            model, operator, graph.features, graph.labels,
            tiny_split_module.labeled_in_original,
            config=TrainConfig(epochs=12, patience=12))
        assert len(calls) == result.epochs_run == 12

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_head_of_embed_is_forward(self, training, tiny_split_module,
                                      operator):
        graph = tiny_split_module.original
        x = Tensor(graph.features)
        split, fused = (make_model("sgc", graph.feature_dim,
                                   tiny_split_module.num_classes, seed=2,
                                   dropout_rate=0.3) for _ in range(2))
        for model in (split, fused):
            if training:
                model.train()
            else:
                model.eval()
        for _ in range(2):  # the second call checks the dropout draw order
            logits = split.head(split.embed(operator, x)).data
            assert np.array_equal(logits, fused.forward(operator, x).data)

    def test_deploy_whole_matches_per_epoch_oracle(self, monkeypatch):
        import repro.experiments.pipeline as pipeline
        from repro import api

        # a fresh experiment context per deploy, so nothing is memoised
        monkeypatch.setattr(api, "_cached_context",
                            api._cached_context.__wrapped__)

        def deploy():
            return api.deploy("pubmed-sim", "whole", deployment="original",
                              scale=0.25, profile="quick")

        bundle = deploy()
        monkeypatch.setattr(pipeline, "train_node_classifier",
                            _per_epoch_oracle)
        oracle = deploy()
        assert bundle.state.keys() == oracle.state.keys()
        for name, value in bundle.state.items():
            assert np.array_equal(value, oracle.state[name]), name
