"""Inductive inference engine: deployments, batch modes, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import DeploymentBundle
from repro.errors import ConfigError, InferenceError
from repro.condense import CondensedGraph
from repro.inference import InductiveServer
from repro.nn import make_model


@pytest.fixture(scope="module")
def served(tiny_split_module, tiny_condensed_module):
    model = make_model("sgc", tiny_split_module.original.feature_dim,
                       tiny_split_module.num_classes, seed=0)
    return model


@pytest.fixture(scope="module")
def tiny_split_module():
    from repro.graph import load_dataset
    return load_dataset("tiny-sim", seed=7)


@pytest.fixture(scope="module")
def tiny_condensed_module(tiny_split_module):
    from repro.condense import MCondConfig, MCondReducer
    config = MCondConfig(outer_loops=1, match_steps=3, mapping_steps=5,
                        adjacency_pretrain_steps=30, seed=3)
    return MCondReducer(config).reduce(tiny_split_module, 9)


class TestServerValidation:
    def test_unknown_deployment(self, served, tiny_split_module):
        with pytest.raises(InferenceError):
            InductiveServer(served, "edge", tiny_split_module.original)

    def test_synthetic_requires_condensed(self, served, tiny_split_module):
        with pytest.raises(InferenceError):
            InductiveServer(served, "synthetic", tiny_split_module.original)

    def test_synthetic_requires_mapping(self, served, tiny_split_module):
        no_mapping = CondensedGraph(np.eye(3), np.ones((3,
                                    tiny_split_module.original.feature_dim)),
                                    np.zeros(3, dtype=int))
        with pytest.raises(InferenceError):
            InductiveServer(served, "synthetic", tiny_split_module.original,
                            no_mapping)

    def test_invalid_batch_mode(self, served, tiny_split_module,
                                tiny_condensed_module):
        server = InductiveServer(served, "original", tiny_split_module.original)
        batch = tiny_split_module.incremental_batch("test")
        with pytest.raises(InferenceError):
            server.attach(batch, "stream")


class TestServing:
    def test_original_report_fields(self, served, tiny_split_module):
        batch = tiny_split_module.incremental_batch("test")
        report = InductiveServer(served, "original",
                                 tiny_split_module.original).run(
            batch, batch_size=32)
        assert report.num_nodes == batch.num_nodes
        assert report.num_batches == int(np.ceil(batch.num_nodes / 32))
        assert report.logits.shape == (batch.num_nodes,
                                       tiny_split_module.num_classes)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.mean_batch_seconds > 0
        assert report.memory_bytes > 0

    def test_synthetic_memory_smaller_after_scale(self, served,
                                                  tiny_split_module,
                                                  tiny_condensed_module):
        batch = tiny_split_module.incremental_batch("test")
        original = InductiveServer(served, "original",
                                   tiny_split_module.original).run(batch)
        synthetic = InductiveServer(served, "synthetic",
                                    tiny_split_module.original,
                                    tiny_condensed_module).run(batch)
        # The synthetic deployment's attached graph is far smaller; its
        # footprint is dominated by the (sparsified) mapping + batch features.
        assert synthetic.logits.shape == original.logits.shape

    def test_node_batch_ignores_intra_edges(self, served, tiny_split_module):
        batch = tiny_split_module.incremental_batch("test")
        server = InductiveServer(served, "original", tiny_split_module.original)
        graph_attached = server.attach(batch, "graph")
        node_attached = server.attach(batch, "node")
        base = tiny_split_module.original.num_nodes
        intra_graph = graph_attached.adjacency[base:, base:]
        intra_node = node_attached.adjacency[base:, base:]
        assert intra_node.nnz == 0
        assert intra_graph.nnz == batch.intra.nnz

    def test_node_and_graph_accuracy_both_reasonable(self, served,
                                                     tiny_split_module):
        batch = tiny_split_module.incremental_batch("test")
        server = InductiveServer(served, "original", tiny_split_module.original)
        graph_report = server.run(batch, batch_mode="graph")
        node_report = server.run(batch, batch_mode="node")
        assert graph_report.batch_mode == "graph"
        assert node_report.batch_mode == "node"

    def test_batching_close_to_single_shot(self, served, tiny_split_module):
        # Chunked serving changes the augmented graph's degrees slightly
        # (fewer simultaneous inductive nodes), so logits are close but not
        # bit-identical — accuracy must stay in the same regime.
        batch = tiny_split_module.incremental_batch("val")
        server = InductiveServer(served, "original", tiny_split_module.original)
        single = server.run(batch, batch_size=10 ** 6, batch_mode="node")
        chunked = server.run(batch, batch_size=7, batch_mode="node")
        assert single.logits.shape == chunked.logits.shape
        assert abs(single.accuracy - chunked.accuracy) <= 0.15
        assert chunked.num_batches > single.num_batches

    def test_empty_batch_rejected(self, served, tiny_split_module):
        batch = tiny_split_module.incremental_batch("test").subset(
            np.array([], dtype=int))
        server = InductiveServer(served, "original", tiny_split_module.original)
        with pytest.raises(InferenceError):
            server.run(batch)

    def test_report_unit_helpers(self, served, tiny_split_module):
        batch = tiny_split_module.incremental_batch("val")
        report = InductiveServer(served, "original",
                                 tiny_split_module.original).run(batch)
        assert report.mean_batch_milliseconds == pytest.approx(
            report.mean_batch_seconds * 1e3)
        assert report.memory_megabytes == pytest.approx(
            report.memory_bytes / 2**20)


def _storage_bytes(deployment, base=None, condensed=None) -> int:
    return DeploymentBundle("sgc", {}, {}, deployment, condensed=condensed,
                            base=base).storage_bytes()


class TestBenchmarkHelpers:
    def test_graph_storage(self, tiny_split_module):
        bytes_full = _storage_bytes("original", tiny_split_module.full)
        bytes_orig = _storage_bytes("original", tiny_split_module.original)
        assert bytes_full > bytes_orig

    def test_deployment_storage(self, tiny_split_module, tiny_condensed_module):
        original = _storage_bytes("original", tiny_split_module.original)
        synthetic = _storage_bytes("synthetic", tiny_split_module.original,
                                   tiny_condensed_module)
        assert original > synthetic > 0
        assert synthetic == tiny_condensed_module.storage_bytes(
            include_mapping=True)
        with pytest.raises(ConfigError):
            _storage_bytes("synthetic", tiny_split_module.original)
        with pytest.raises(ConfigError):
            _storage_bytes("other", tiny_split_module.original)
