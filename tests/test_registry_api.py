"""The public API layer: name tables, the facade, and DeploymentBundle."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.condense import REDUCERS, CondensedGraph, ReducerEntry, make_reducer
from repro.condense.base import FORMAT_VERSION
from repro.errors import ArtifactError, ConfigError, RegistryError
from repro.experiments import EffortProfile
from repro.graph.datasets import DATASET_SPECS
from repro.nn import MODELS, make_model

FAST = EffortProfile(
    name="api-test", train_epochs=15, train_patience=10, train_lr=0.05,
    outer_loops=1, match_steps=2, mapping_steps=4, relay_steps=1,
    seeds=(0,), inference_repeats=1)


# ----------------------------------------------------------------------
# The name tables
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_error_is_config_error(self):
        assert issubclass(RegistryError, ConfigError)


class TestBuiltinRegistrations:
    def test_all_reducers_registered(self):
        for name in ("random", "degree", "herding", "kcenter", "vng",
                     "gcond", "mcond", "doscond"):
            assert name in REDUCERS

    def test_all_models_registered(self):
        for name in ("sgc", "gcn", "graphsage", "appnp", "cheby", "mlp"):
            assert name in MODELS

    def test_all_datasets_registered(self):
        for name in ("pubmed-sim", "flickr-sim", "reddit-sim", "tiny-sim"):
            assert name in DATASET_SPECS

    def test_make_reducer_builds_configured_instance(self):
        reducer = make_reducer("mcond", seed=3, outer_loops=1, match_steps=2,
                               mapping_steps=2)
        assert reducer.name == "mcond"
        assert reducer.config.seed == 3
        assert reducer.config.outer_loops == 1

    def test_make_reducer_unknown(self):
        with pytest.raises(RegistryError, match="mcond"):
            make_reducer("does-not-exist")

    def test_registered_plugin_reducer_reaches_pipeline(self, tiny_split,
                                                         monkeypatch):
        from repro.condense.coreset import RandomCoreset
        from repro.experiments import ExperimentContext
        from repro.experiments.pipeline import prepare_dataset

        monkeypatch.setitem(REDUCERS, "_test-plugin", ReducerEntry(
            "_test-plugin", RandomCoreset, "test-only"))
        context = ExperimentContext(prepare_dataset("tiny-sim", seed=7), FAST)
        condensed = context.reduce("_test-plugin", 9)
        assert condensed.num_nodes == 9

    def test_names_are_exact(self):
        with pytest.raises(RegistryError, match="available: .*mcond"):
            make_reducer("MCond")
        with pytest.raises(RegistryError, match="available: .*gcn"):
            make_model("GCN", 8, 3)

    def test_make_model_records_build_recipe(self):
        model = make_model("gcn", 8, 3, seed=5, hidden=16)
        assert model.registry_name == "gcn"
        assert model.build_config == {"in_features": 8, "num_classes": 3,
                                      "seed": 5, "hidden": 16}


# ----------------------------------------------------------------------
# Artifact hardening
# ----------------------------------------------------------------------
class TestArtifactHardening:
    def test_save_load_without_npz_suffix(self, tiny_condensed, tmp_path):
        target = tmp_path / "artifact.bin"
        tiny_condensed.save(target)
        assert (tmp_path / "artifact.bin.npz").exists()
        loaded = CondensedGraph.load(target)
        assert np.allclose(loaded.adjacency, tiny_condensed.adjacency)

    def test_format_version_stamped(self, tiny_condensed, tmp_path):
        target = tmp_path / "artifact.npz"
        tiny_condensed.save(target)
        with np.load(target) as archive:
            assert int(archive["format_version"]) == FORMAT_VERSION

    def test_future_format_rejected(self, tiny_condensed, tmp_path):
        target = tmp_path / "artifact.npz"
        payload = tiny_condensed.to_payload()
        payload["format_version"] = np.asarray(FORMAT_VERSION + 1)
        np.savez_compressed(target, **payload)
        with pytest.raises(ArtifactError, match="format"):
            CondensedGraph.load(target)

    def test_versionless_archive_still_loads(self, tiny_condensed, tmp_path):
        # Files written before the stamp existed are treated as version 1.
        target = tmp_path / "legacy.npz"
        np.savez_compressed(target, **tiny_condensed.to_payload())
        loaded = CondensedGraph.load(target)
        assert loaded.num_nodes == tiny_condensed.num_nodes

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            CondensedGraph.load(tmp_path / "nope.npz")

    def test_weight_save_load_roundtrip(self, tmp_path):
        model = make_model("gcn", 6, 3, seed=0, hidden=8)
        target = tmp_path / "weights"  # no suffix on purpose
        model.save_weights(target)
        clone = make_model("gcn", 6, 3, seed=99, hidden=8)
        clone.load_weights(target)
        for (name_a, a), (name_b, b) in zip(model.named_parameters(),
                                            clone.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)


# ----------------------------------------------------------------------
# Facade: condense / deploy / serve
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mcond_bundle():
    return api.deploy("tiny-sim", method="mcond", budget=9, seed=1,
                      profile=FAST)


class TestFacade:
    def test_condense_returns_condensed_graph(self):
        condensed = api.condense("tiny-sim", method="random", budget=9,
                                 seed=1, profile=FAST)
        assert isinstance(condensed, CondensedGraph)
        assert condensed.num_nodes == 9
        assert condensed.supports_attachment()

    def test_condense_unknown_method_lists_keys(self):
        with pytest.raises(RegistryError, match="mcond"):
            api.condense("tiny-sim", method="nope", budget=9, profile=FAST)

    def test_deploy_packages_synthetic_bundle(self, mcond_bundle):
        assert mcond_bundle.deployment == "synthetic"
        assert mcond_bundle.condensed is not None
        assert mcond_bundle.base is None          # small artifact by design
        assert mcond_bundle.metadata["dataset"] == "tiny-sim"
        assert mcond_bundle.metadata["method"] == "mcond"
        assert mcond_bundle.model_name == "sgc"

    def test_deploy_reuses_precomputed_condensed(self):
        condensed = api.condense("tiny-sim", method="random", budget=9,
                                 seed=1, profile=FAST)
        bundle = api.deploy("tiny-sim", condensed=condensed, seed=1,
                            profile=FAST)
        assert bundle.condensed is condensed
        assert bundle.metadata["method"] == "random"
        assert bundle.metadata["budget"] == 9

    def test_whole_baseline_deploys_original(self):
        bundle = api.deploy("tiny-sim", method="whole", seed=1, profile=FAST)
        assert bundle.deployment == "original"
        assert bundle.base is not None
        report = api.serve(bundle, batch_mode="graph")
        assert report.deployment == "original"
        assert 0.0 <= report.accuracy <= 1.0

    def test_gcond_falls_back_to_original_deployment(self):
        # GCond learns no mapping, so it cannot serve on the synthetic graph.
        bundle = api.deploy("tiny-sim", method="gcond", budget=9, seed=1,
                            profile=FAST)
        assert bundle.deployment == "original"
        assert bundle.metadata["train_on"] == "synthetic"

    def test_serve_default_batch_matches_recorded_dataset(self, mcond_bundle):
        report = api.serve(mcond_bundle, batch_mode="node")
        from repro.graph import load_dataset
        split = load_dataset("tiny-sim", seed=1)
        assert report.num_nodes == split.test_idx.size

    def test_serve_scores_the_operator_every_tier_serves(self,
                                                         mcond_bundle):
        # a synthetic SGC deployment serves the frozen operator on every
        # tier, so the accuracy api.serve reports is computed on it too
        batch = api.evaluation_batch(mcond_bundle)
        report = api.serve(mcond_bundle, batch_mode="node",
                           batch_size=batch.num_nodes)
        served, _, _ = mcond_bundle.prepare().serve_batch(batch, "node")
        assert np.array_equal(report.logits, served)

    def test_one_serve_entry_point(self, mcond_bundle):
        import repro.inference
        assert not hasattr(mcond_bundle, "serve")
        assert not hasattr(mcond_bundle, "server")
        assert not hasattr(repro.inference, "run_inference")

    def test_operator_shapes(self, mcond_bundle):
        operator = mcond_bundle.operator()
        n = mcond_bundle.condensed.num_nodes
        assert operator.shape == (n, n)


class TestBundlePersistence:
    def test_roundtrip_bit_for_bit_serving_parity(self, mcond_bundle,
                                                  tmp_path):
        in_memory = api.serve(mcond_bundle, batch_mode="node")
        target = mcond_bundle.save(tmp_path / "bundle.npz")
        reloaded = api.DeploymentBundle.load(target)
        cold = api.serve(reloaded, batch_mode="node")
        assert cold.accuracy == in_memory.accuracy
        assert np.array_equal(cold.logits, in_memory.logits)

    def test_roundtrip_preserves_everything(self, mcond_bundle, tmp_path):
        target = mcond_bundle.save(tmp_path / "bundle")  # suffix normalized
        reloaded = api.DeploymentBundle.load(tmp_path / "bundle")
        assert reloaded.model_name == mcond_bundle.model_name
        assert reloaded.model_config == mcond_bundle.model_config
        assert reloaded.deployment == mcond_bundle.deployment
        assert reloaded.metadata == mcond_bundle.metadata
        assert set(reloaded.state) == set(mcond_bundle.state)
        for name, value in mcond_bundle.state.items():
            assert np.array_equal(reloaded.state[name], value)
        assert (reloaded.condensed.mapping.nnz
                == mcond_bundle.condensed.mapping.nnz)

    def test_whole_bundle_roundtrip(self, tmp_path):
        bundle = api.deploy("tiny-sim", method="whole", seed=1, profile=FAST)
        before = api.serve(bundle, batch_mode="graph")
        bundle.save(tmp_path / "whole.npz")
        reloaded = api.DeploymentBundle.load(tmp_path / "whole.npz")
        after = api.serve(reloaded, batch_mode="graph")
        assert np.array_equal(before.logits, after.logits)
        assert reloaded.base.num_nodes == bundle.base.num_nodes

    def test_load_rejects_bare_condensed_artifact(self, tiny_condensed,
                                                  tmp_path):
        tiny_condensed.save(tmp_path / "bare.npz")
        with pytest.raises(ArtifactError, match="CondensedGraph.load"):
            api.DeploymentBundle.load(tmp_path / "bare.npz")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            api.DeploymentBundle.load(tmp_path / "missing.npz")

    def test_bundle_validation(self, mcond_bundle):
        with pytest.raises(ConfigError):
            api.DeploymentBundle(model_name="sgc", model_config={}, state={},
                                 deployment="synthetic", condensed=None)
        with pytest.raises(ConfigError):
            api.DeploymentBundle(model_name="sgc", model_config={}, state={},
                                 deployment="original", base=None)
        with pytest.raises(ConfigError):
            api.DeploymentBundle(model_name="sgc", model_config={}, state={},
                                 deployment="sideways",
                                 condensed=mcond_bundle.condensed)
