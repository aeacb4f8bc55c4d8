"""End-to-end integration tests asserting the paper's qualitative claims
on the tiny fixture dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.condense import MCondConfig, MCondReducer, make_reducer
from repro.experiments import (Cell, ExperimentContext, EffortProfile,
                               prepare_dataset)
from repro.graph import load_dataset, symmetric_normalize
from repro.inference import InductiveServer
from repro.nn import TrainConfig, make_model, train_node_classifier
from repro.propagation import label_propagation, softmax_rows

PROFILE = EffortProfile(
    name="integration", train_epochs=40, train_patience=15, train_lr=0.05,
    outer_loops=2, match_steps=5, mapping_steps=12, relay_steps=2,
    seeds=(0,), inference_repeats=1)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(prepare_dataset("tiny-sim", seed=2), PROFILE)


class TestPaperClaims:
    def test_mcond_serves_on_synthetic_graph(self, context):
        """The headline capability: inductive inference without the original
        graph, at accuracy comparable to full-graph serving."""
        whole = context.run_method(Cell("whole", 15, batch_mode="graph"))
        mcond = context.run_method(Cell("mcond_ss", 15, batch_mode="graph"))
        assert mcond.accuracy >= whole.accuracy - 0.15

    def test_mcond_beats_random_coreset(self, context):
        random_report = context.run_method(Cell("random", 15, batch_mode="graph"))
        mcond_report = context.run_method(Cell("mcond_os", 15, batch_mode="graph"))
        assert mcond_report.accuracy >= random_report.accuracy - 0.02

    def test_gcond_cannot_attach_but_mcond_can(self, context):
        gcond = context.reduce("gcond", 15)
        mcond = context.reduce("mcond", 15)
        assert not gcond.supports_attachment()
        assert mcond.supports_attachment()

    def test_synthetic_graph_much_smaller(self, context):
        from repro.api import DeploymentBundle
        mcond = context.reduce("mcond", 15)
        original_bytes = DeploymentBundle(
            "sgc", {}, {}, "original",
            base=context.prepared.original).storage_bytes()
        synthetic_bytes = DeploymentBundle(
            "sgc", {}, {}, "synthetic", condensed=mcond).storage_bytes()
        assert synthetic_bytes < original_bytes

    def test_graph_batch_at_least_node_batch_on_average(self, context):
        """Graph batches carry extra edges; accuracy should not collapse."""
        graph_mode = context.run_method(Cell("mcond_ss", 15, batch_mode="graph"))
        node_mode = context.run_method(Cell("mcond_ss", 15, batch_mode="node"))
        assert abs(graph_mode.accuracy - node_mode.accuracy) < 0.2

    def test_label_propagation_calibrates_synthetic_serving(self, context):
        from repro.inference import InductiveServer
        condensed = context.reduce("mcond", 15)
        model = context.train("synthetic", condensed=condensed,
                              validate_deployment="synthetic")
        server = InductiveServer(model, "synthetic",
                                 context.prepared.original, condensed)
        batch = context.prepared.test_batch
        attached = server.attach(batch, "graph")
        operator = symmetric_normalize(attached.adjacency)
        from repro.tensor import Tensor, no_grad
        with no_grad():
            logits = model(operator, Tensor(attached.features)).data
        vanilla = (logits[attached.base_size:].argmax(1) == batch.labels).mean()
        scores = label_propagation(
            attached, condensed.labels, context.prepared.split.num_classes,
            prior=softmax_rows(logits[attached.base_size:]))
        lp_acc = (scores.argmax(1) == batch.labels).mean()
        assert lp_acc >= vanilla - 0.05

    def test_full_pipeline_from_scratch(self):
        """Exercise the whole stack without the ExperimentContext sugar."""
        split = load_dataset("tiny-sim", seed=5, scale=0.7)
        config = MCondConfig(outer_loops=1, match_steps=3, mapping_steps=8,
                             adjacency_pretrain_steps=40, seed=0)
        condensed = MCondReducer(config).reduce(split, 9)

        operator = condensed.normalized_adjacency()
        model = make_model("sgc", split.original.feature_dim,
                           split.num_classes, seed=0)
        train_node_classifier(model, operator, condensed.features,
                              condensed.labels,
                              np.arange(condensed.num_nodes),
                              config=TrainConfig(epochs=40, patience=40))
        report = InductiveServer(model, "synthetic", split.original,
                                 condensed).run(
            split.incremental_batch("test"))
        assert report.accuracy > 1.5 / split.num_classes  # well above chance

    def test_coreset_pipeline_from_scratch(self):
        split = load_dataset("tiny-sim", seed=6, scale=0.7)
        condensed = make_reducer("kcenter", seed=0).reduce(split, 9)
        operator = symmetric_normalize(split.original.adjacency)
        model = make_model("sgc", split.original.feature_dim,
                           split.num_classes, seed=0)
        train_node_classifier(model, operator, split.original.features,
                              split.original.labels,
                              split.labeled_in_original,
                              config=TrainConfig(epochs=40, patience=40))
        report = InductiveServer(model, "synthetic", split.original,
                                 condensed).run(
            split.incremental_batch("test"))
        assert report.accuracy > 1.0 / split.num_classes
