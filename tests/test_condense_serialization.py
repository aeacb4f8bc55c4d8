"""Condensed-artifact serialization (offline condense -> online serve)."""

from __future__ import annotations

import numpy as np

from repro.condense import CondensedGraph
from repro.inference import InductiveServer
from repro.nn import make_model


class TestSaveLoad:
    def test_roundtrip_with_mapping(self, tiny_condensed, tmp_path):
        target = tmp_path / "condensed.npz"
        tiny_condensed.save(target)
        loaded = CondensedGraph.load(target)
        assert np.allclose(loaded.adjacency, tiny_condensed.adjacency)
        assert np.allclose(loaded.features, tiny_condensed.features)
        assert np.array_equal(loaded.labels, tiny_condensed.labels)
        assert loaded.method == tiny_condensed.method
        assert (loaded.mapping != tiny_condensed.mapping).nnz == 0

    def test_roundtrip_without_mapping(self, tmp_path):
        condensed = CondensedGraph(np.eye(3), np.ones((3, 4)),
                                   np.array([0, 1, 2]), method="gcond")
        target = tmp_path / "plain.npz"
        condensed.save(target)
        loaded = CondensedGraph.load(target)
        assert loaded.mapping is None
        assert loaded.method == "gcond"
        assert np.allclose(loaded.adjacency, np.eye(3))

    def test_loaded_artifact_serves(self, tiny_split, tiny_condensed, tmp_path):
        """The deployment-critical property: a reloaded artifact serves
        identically to the in-memory one."""
        target = tmp_path / "deploy.npz"
        tiny_condensed.save(target)
        loaded = CondensedGraph.load(target)
        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0)
        batch = tiny_split.incremental_batch("test")
        original = InductiveServer(model, "synthetic", tiny_split.original,
                                   tiny_condensed).run(batch,
                                                       batch_mode="node")
        reloaded = InductiveServer(model, "synthetic", tiny_split.original,
                                   loaded).run(batch, batch_mode="node")
        assert np.allclose(original.logits, reloaded.logits, atol=1e-12)

    def test_storage_accounting_stable_after_roundtrip(self, tiny_condensed,
                                                       tmp_path):
        target = tmp_path / "size.npz"
        tiny_condensed.save(target)
        loaded = CondensedGraph.load(target)
        assert loaded.storage_bytes() == tiny_condensed.storage_bytes()
