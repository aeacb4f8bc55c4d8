"""Experiment settings, pipeline caching, and harness schemas."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    Cell,
    EffortProfile,
    ExperimentContext,
    METHODS,
    current_profile,
    dataset_budgets,
    format_table,
    mean_std,
    prepare_dataset,
)

FAST = EffortProfile(
    name="test", train_epochs=15, train_patience=10, train_lr=0.05,
    outer_loops=1, match_steps=2, mapping_steps=4, relay_steps=1,
    seeds=(0,), inference_repeats=1)


@pytest.fixture(scope="module")
def context():
    prepared = prepare_dataset("tiny-sim", seed=1)
    return ExperimentContext(prepared, FAST)


class TestSettings:
    def test_method_matrix_matches_paper(self):
        assert METHODS["whole"].setting == "O->O"
        assert METHODS["gcond"].setting == "S->O"
        assert METHODS["mcond_os"].setting == "O->S"
        assert METHODS["mcond_so"].setting == "S->O"
        assert METHODS["mcond_ss"].setting == "S->S"
        for coreset in ("random", "degree", "herding", "kcenter", "vng"):
            assert METHODS[coreset].setting == "O->S"

    def test_budgets_known_datasets(self):
        assert dataset_budgets("pubmed-sim") == (30, 60)
        with pytest.raises(ConfigError):
            dataset_budgets("unknown")

    def test_profile_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EFFORT", "quick")
        assert current_profile().name == "quick"
        monkeypatch.setenv("REPRO_EFFORT", "bogus")
        with pytest.raises(ConfigError):
            current_profile()

    def test_profile_requires_seeds(self):
        with pytest.raises(ConfigError):
            EffortProfile(name="x", train_epochs=1, train_patience=1,
                          train_lr=0.1, outer_loops=1, match_steps=1,
                          mapping_steps=1, relay_steps=1, seeds=(),
                          inference_repeats=1)


class TestReporting:
    def test_mean_std(self):
        mean, std = mean_std([1.0, 3.0])
        assert mean == 2.0 and std == 1.0

    def test_mean_std_empty(self):
        mean, std = mean_std([])
        assert np.isnan(mean)

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])


class TestPipeline:
    def test_reduce_cached(self, context):
        first = context.reduce("random", 9, seed=0)
        second = context.reduce("random", 9, seed=0)
        assert first is second

    def test_reduce_distinct_for_overrides(self, context):
        a = context.reduce("mcond", 9, seed=0)
        b = context.reduce("mcond", 9, seed=0, use_structure_loss=False)
        assert a is not b

    def test_reduce_keys_on_the_resolved_config(self, context):
        # restating a default is the same run: Fig. 5's class-aware cell
        # reuses Table II's condensation
        assert (context.reduce("mcond", 9, class_aware_init=True)
                is context.reduce("mcond", 9))
        assert (context.mcond_result(9, class_aware_init=True)
                is context.mcond_result(9))

    def test_train_cache_keeps_its_keyed_graph_alive(self, context):
        # the model memo keys on id(condensed); a freed graph's id could be
        # recycled by another graph, which would then get a stale model
        condensed = replace(context.reduce("mcond", 9))
        context.train("synthetic", condensed=condensed,
                      validate_deployment="synthetic")
        ref = weakref.ref(condensed)
        del condensed
        gc.collect()
        assert ref() is not None

    def test_train_cached(self, context):
        a = context.train("original", seed=0)
        b = context.train("original", seed=0)
        assert a is b

    def test_unknown_method_rejected(self, context):
        with pytest.raises(ConfigError):
            Cell("magic", 9)
        with pytest.raises(ConfigError):
            context.reduce("magic", 9)
        with pytest.raises(ConfigError):
            context.train("sideways")

    def test_run_method_produces_report(self, context):
        report = context.run_method(Cell("random", 9, batch_mode="node"))
        assert 0.0 <= report.accuracy <= 1.0
        assert report.deployment == "synthetic"

    def test_reduction_ratio(self, context):
        ratio = context.prepared.reduction_ratio(9)
        assert ratio == pytest.approx(9 / context.prepared.original.num_nodes)



class TestValidator:
    """The early-stopping validator scores what the evaluation path
    scores, with the validation batch attached once per training run."""

    @pytest.mark.parametrize("model_name", ("sgc", "gcn"))
    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    def test_validator_matches_the_evaluation_path(self, context,
                                                   model_name, deployment):
        from repro.nn import TrainConfig, make_model, train_node_classifier
        from repro.serving import PreparedDeployment
        prepared = context.prepared
        condensed = context.reduce("mcond", 9)
        val = prepared.val_batch
        model = make_model(model_name, prepared.original.feature_dim,
                           prepared.split.num_classes, seed=0)
        validator = context._make_validator(model, deployment, condensed)
        checked = []

        def checking(current):
            score = validator(current)
            report = context.evaluate(current, deployment, condensed,
                                      which="val", batch_size=val.num_nodes)
            forward, _ = PreparedDeployment(
                current, deployment, prepared.original,
                condensed).split_at_weights(val, "graph")
            assert np.array_equal(forward(current), report.logits)
            checked.append((score, report.accuracy))
            return score

        train_node_classifier(
            model, condensed.normalized_adjacency(), condensed.features,
            condensed.labels, np.arange(condensed.num_nodes),
            validator=checking,
            config=TrainConfig(epochs=12, lr=0.05, patience=12, eval_every=3))
        assert len(checked) == 4
        assert all(score == accuracy for score, accuracy in checked)

    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    def test_sgc_validator_call_runs_no_sparse_product(self, context,
                                                       deployment,
                                                       monkeypatch):
        from scipy.sparse._base import _spbase
        from repro.nn import make_model
        prepared = context.prepared
        model = make_model("sgc", prepared.original.feature_dim,
                           prepared.split.num_classes, seed=0)
        validator = context._make_validator(model, deployment,
                                            context.reduce("mcond", 9))
        products = []
        dispatch = _spbase._matmul_dispatch

        def counting_dispatch(self, other):
            products.append(self.shape)
            return dispatch(self, other)

        monkeypatch.setattr(_spbase, "_matmul_dispatch", counting_dispatch)
        model.eval()
        scores = [validator(model) for _ in range(3)]
        assert products == []
        assert len(set(scores)) == 1
