"""Utilities, the CLI, DosCond, and the Correct&Smooth extension."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.condense import DosCondConfig, DosCondReducer
from repro.errors import ConfigError
from repro.graph import adjacency_from_edges, attach_to_original
from repro.propagation import correct_and_smooth, smooth_predictions
from repro.utils import seed_everything, spawn_rngs


class TestSeeding:
    def test_seed_everything_returns_generator(self):
        rng = seed_everything(42)
        assert isinstance(rng, np.random.Generator)

    def test_seed_everything_reproducible(self):
        a = seed_everything(7).random(4)
        b = seed_everything(7).random(4)
        assert np.allclose(a, b)

    def test_seed_everything_type_check(self):
        with pytest.raises(ConfigError):
            seed_everything("seed")

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        draws = [rng.random(8) for rng in rngs]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_rngs_count_validation(self):
        with pytest.raises(ConfigError):
            spawn_rngs(0, 0)


def _fast_profile(monkeypatch):
    """Patch the CLI's quick profile to something near-instant."""
    import repro.cli as cli
    from repro.experiments import EffortProfile
    monkeypatch.setattr(cli, "QUICK", EffortProfile(
        name="cli-test", train_epochs=5, train_patience=5, train_lr=0.05,
        outer_loops=1, match_steps=1, mapping_steps=2, relay_steps=1,
        seeds=(0,), inference_repeats=1))


class TestCli:
    def test_parser_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["grid", "table2", "--dataset", "tiny-sim"])
        assert args.preset == "table2"
        assert args.dataset == "tiny-sim"

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["grid", "table9"])
        with pytest.raises(SystemExit):
            parser.parse_args(["table2"])  # the grid is the only front door

    def test_unknown_dataset_exits_cleanly(self, capsys):
        code = main(["grid", "table2", "--dataset", "does-not-exist"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_list_enumerates_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("mcond", "gcond", "sgc", "pubmed-sim", "table2",
                    "mcond_ss"):
            assert key in out

    def test_condense_unknown_method_lists_keys(self, capsys):
        code = main(["condense", "--dataset", "tiny-sim", "--method", "nope",
                     "--budget", "9"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "mcond" in err           # the available keys are listed

    def test_condense_unknown_dataset_lists_keys(self, capsys):
        code = main(["condense", "--dataset", "nope", "--method", "mcond"])
        assert code == 2
        assert "tiny-sim" in capsys.readouterr().err

    def test_serve_missing_artifact_exits_cleanly(self, capsys, tmp_path):
        code = main(["serve", "--artifact", str(tmp_path / "missing.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_corrupt_artifact_exits_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"this is not a zip archive")
        code = main(["serve", "--artifact", str(corrupt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "corrupt.npz" in err

    def test_condense_unwritable_output_exits_cleanly(self, capsys,
                                                      monkeypatch, tmp_path):
        _fast_profile(monkeypatch)
        target = tmp_path / "no" / "such" / "dir" / "bundle.npz"
        code = main(["condense", "--dataset", "tiny-sim", "--method", "random",
                     "--budget", "9", "--output", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bundle.npz" in err

    def test_condense_then_serve_roundtrip(self, capsys, monkeypatch,
                                           tmp_path):
        _fast_profile(monkeypatch)
        artifact = tmp_path / "bundle.npz"
        code = main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--output", str(artifact)])
        assert code == 0
        assert artifact.exists()
        out = capsys.readouterr().out
        assert "DeploymentBundle" in out

        code = main(["serve", "--artifact", str(artifact),
                     "--batch-mode", "node"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "synthetic" in out

    def test_condense_sharded_roundtrip(self, capsys, monkeypatch, tmp_path):
        _fast_profile(monkeypatch)
        artifact = tmp_path / "sharded.npz"
        code = main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--shards", "2", "--workers", "2",
                     "--output", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded offline phase: 2 shards, 2 workers" in out
        assert artifact.exists()

        code = main(["serve", "--artifact", str(artifact),
                     "--batch-mode", "node"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_condense_then_serve_stream_roundtrip(self, capsys, monkeypatch,
                                                  tmp_path):
        _fast_profile(monkeypatch)
        artifact = tmp_path / "streamable.npz"
        code = main(["condense", "--dataset", "tiny-sim", "--method", "whole",
                     "--deployment", "original", "--output", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "deployment='original'" in out
        assert artifact.exists()

        code = main(["serve-stream", "--artifact", str(artifact),
                     "--deltas", "2", "--nodes-per-delta", "2",
                     "--requests", "8", "--batch-mode", "node"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingesting 2 deltas" in out
        assert "delta refresh" in out
        assert "+4 streamed" in out
        assert "evolved == fresh prepare(): ok" in out

    def test_serve_stream_exits_1_when_evolved_deployment_drifts(
            self, capsys, monkeypatch, tmp_path):
        # a delta that skips the degree patch leaves the evolved
        # deployment serving different bits than a fresh prepare()
        from repro.serving.prepared import PreparedDeployment

        _fast_profile(monkeypatch)
        artifact = tmp_path / "streamable.npz"
        assert main(["condense", "--dataset", "tiny-sim", "--method",
                     "whole", "--deployment", "original",
                     "--output", str(artifact)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(PreparedDeployment, "_patch_degrees",
                            lambda self, *args: None)
        code = main(["serve-stream", "--artifact", str(artifact),
                     "--deltas", "2", "--nodes-per-delta", "2",
                     "--requests", "8", "--batch-mode", "node"])
        assert code == 1
        captured = capsys.readouterr()
        assert "differs from a fresh prepare()" in captured.err
        assert "fresh prepare(): ok" not in captured.out

    def test_serve_stream_on_synthetic_bundle_appends_only(
            self, capsys, monkeypatch, tmp_path):
        _fast_profile(monkeypatch)
        artifact = tmp_path / "synthetic.npz"
        code = main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--output", str(artifact)])
        assert code == 0
        capsys.readouterr()
        code = main(["serve-stream", "--artifact", str(artifact),
                     "--deltas", "2", "--nodes-per-delta", "1",
                     "--requests", "6", "--batch-mode", "node"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingesting 2 deltas" in out

    def test_condense_whole_with_shards_rejected(self, capsys):
        code = main(["condense", "--dataset", "tiny-sim", "--method", "whole",
                     "--shards", "2"])
        assert code == 2
        assert ("--shards requires a reduction method"
                in capsys.readouterr().err)

    def test_condense_sharded_unknown_partitioner(self, capsys, monkeypatch):
        _fast_profile(monkeypatch)
        code = main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--shards", "2",
                     "--partitioner", "metis"])
        assert code == 2
        assert "stratified" in capsys.readouterr().err  # alternatives listed

    def test_eval_runs_one_method(self, capsys, monkeypatch):
        _fast_profile(monkeypatch)
        code = main(["eval", "--dataset", "tiny-sim", "--method", "random",
                     "--budget", "9", "--batch-mode", "node"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_eval_unknown_method_exits_cleanly(self, capsys):
        code = main(["eval", "--dataset", "tiny-sim", "--method", "bogus",
                     "--budget", "9"])
        assert code == 2
        assert "whole" in capsys.readouterr().err  # known methods listed

    def test_table5_runs_on_tiny(self, capsys, monkeypatch, tmp_path):
        _fast_profile(monkeypatch)
        output = tmp_path / "table5.json"
        code = main(["grid", "table5", "--dataset", "tiny-sim", "--budget",
                     "9", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "table5 — tiny-sim" in out
        assert "paper orderings:" in out
        payload = json.loads(output.read_text())
        assert payload["preset"] == "table5"
        assert len(payload["rows"]) == 8  # 4 ablations x 2 batch modes
        assert {row["budget"] for row in payload["rows"]} == {9}


class TestServingCli:
    def test_batch_mode_help_states_every_default(self):
        # one declaration: no subcommand hides its default behind an
        # empty help string, and the graph-default pair stays as it was
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(getattr(a, "choices", None), dict))
        defaults = {}
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if "--batch-mode" in action.option_strings:
                    assert f"(here: {action.default})" in action.help
                    defaults[name] = action.default
        assert len(defaults) == 6
        assert {n for n, d in defaults.items() if d == "graph"} == {
            "serve", "eval"}

    def test_serve_online_missing_artifact(self, capsys, tmp_path):
        code = main(["serve-online",
                     "--artifact", str(tmp_path / "missing.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_online_roundtrip(self, capsys, monkeypatch, tmp_path):
        _fast_profile(monkeypatch)
        artifact = tmp_path / "bundle.npz"
        assert main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--output", str(artifact)]) == 0
        capsys.readouterr()
        code = main(["serve-online", "--artifact", str(artifact),
                     "--requests", "6", "--closed-loop",
                     "--batch-mode", "node", "--max-batch-size", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 6 requests" in out
        assert "latency p50/p95/p99" in out
        assert "throughput" in out

    @pytest.mark.parametrize("command, options", [
        ("serve-online", ["--closed-loop"]),
        ("serve-stream", ["--deltas", "2", "--nodes-per-delta", "1"]),
        ("serve-fleet", ["--replicas", "1"]),
    ])
    def test_serve_commands_exit_1_on_failed_requests(
            self, capsys, monkeypatch, tmp_path, command, options):
        # the replica worker forks after the patch, so the fleet's
        # requests fail in the child process too
        from repro.serving.prepared import PreparedDeployment

        _fast_profile(monkeypatch)
        artifact = tmp_path / "bundle.npz"
        assert main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--output", str(artifact)]) == 0
        capsys.readouterr()

        def boom(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(PreparedDeployment, "serve_batch", boom)
        code = main([command, "--artifact", str(artifact), "--requests", "4",
                     "--batch-mode", "node", *options])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed                4 of 4 requests" in captured.out
        assert "error: 4 of 4 requests failed" in captured.err
        assert "RuntimeError: boom" in captured.err  # the cause, not just a count

    def test_serve_online_prints_why_requests_failed(self, capsys,
                                                     monkeypatch, tmp_path):
        # top-k with the default k=10 over a 9-node synthetic graph fails
        # every request; the cause must reach stderr before the error line
        _fast_profile(monkeypatch)
        artifact = tmp_path / "bundle.npz"
        assert main(["condense", "--dataset", "tiny-sim", "--method", "mcond",
                     "--budget", "9", "--output", str(artifact)]) == 0
        capsys.readouterr()
        code = main(["serve-online", "--artifact", str(artifact),
                     "--task", "topk", "--requests", "8", "--closed-loop"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "cause (8 of 8 requests): ServingError: topk asked for k=10 "
            "neighbors but the index holds only 9 base nodes",
            "error: 8 of 8 requests failed"]

    def test_failure_causes_are_distinct_and_capped(self, capsys):
        from repro.cli import SHOWN_FAILURE_CAUSES, _report_failed

        outcomes = [ValueError(f"cause {i % 5}") for i in range(10)]
        assert _report_failed([None, *outcomes]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[:SHOWN_FAILURE_CAUSES] == [
            f"cause (2 of 11 requests): ValueError: cause {i}"
            for i in range(SHOWN_FAILURE_CAUSES)]
        assert err[SHOWN_FAILURE_CAUSES:] == [
            f"cause: {5 - SHOWN_FAILURE_CAUSES} more distinct causes not shown",
            "error: 10 of 11 requests failed"]

    def test_list_includes_partitioners(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stratified" in out
        assert "degree" in out
        assert "sharded" in out

    def test_list_has_no_serving_policy_sections(self, capsys):
        # schedulers, arrivals, routing and gateway policies are fixed
        # objects now, not registries with selectable entries
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in ("schedulers", "workload generators",
                        "routing policies", "shed policies",
                        "scale policies"):
            assert heading not in out
        assert "serving tasks" in out

    @pytest.mark.parametrize("command, flag, value", [
        ("serve-online", "--workload", "bursty"),
        ("serve-online", "--scheduler", "immediate"),
        ("serve-stream", "--scheduler", "sizecap"),
        ("serve-fleet", "--router", "least-loaded"),
        ("serve-gateway", "--router", "consistent-hash"),
    ])
    def test_removed_policy_flags_rejected(self, capsys, command, flag,
                                           value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "--artifact", "bundle.npz", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


class TestDosCond:
    def test_reduces_and_labels_cover_classes(self, tiny_split):
        config = DosCondConfig(outer_loops=1, match_steps=3,
                               adjacency_pretrain_steps=10, seed=0)
        condensed = DosCondReducer(config).reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert condensed.method == "doscond"
        assert np.unique(condensed.labels).size == tiny_split.num_classes

    def test_relay_steps_forced_zero(self):
        config = DosCondConfig(relay_steps=5)
        assert config.relay_steps == 0

    def test_no_mapping_like_gcond(self, tiny_split):
        config = DosCondConfig(outer_loops=1, match_steps=2,
                               adjacency_pretrain_steps=10, seed=0)
        condensed = DosCondReducer(config).reduce(tiny_split, 9)
        assert not condensed.supports_attachment()


class TestSmooth:
    @staticmethod
    def attached_cliques():
        edges = []
        for offset in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append([offset + i, offset + j])
        adjacency = adjacency_from_edges(np.array(edges), 8)
        import scipy.sparse as sp
        inc = sp.csr_matrix((np.ones(2), ([0, 1], [0, 4])), shape=(2, 8))
        return attach_to_original(adjacency, np.zeros((8, 2)), inc,
                                  np.zeros((2, 2)))

    def test_smoothing_pulls_to_neighborhood(self):
        attached = self.attached_cliques()
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        # Both inductive nodes start uncertain; smoothing should commit them
        # to their attached clique's class.
        scores = np.full((2, 2), 0.5)
        smoothed = smooth_predictions(attached, base_labels, scores, 2,
                                      alpha=0.9, iterations=30)
        assert smoothed[0].argmax() == 0
        assert smoothed[1].argmax() == 1

    def test_correct_and_smooth_pipeline(self):
        attached = self.attached_cliques()
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        base_logits = np.zeros((8, 2))
        base_logits[np.arange(8), base_labels] = 3.0
        inductive_logits = np.zeros((2, 2))
        out = correct_and_smooth(attached, base_labels, base_logits,
                                 inductive_logits, 2)
        assert out.shape == (2, 2)
        assert out[0].argmax() == 0 and out[1].argmax() == 1

    def test_validation(self):
        attached = self.attached_cliques()
        from repro.errors import InferenceError
        with pytest.raises(InferenceError):
            smooth_predictions(attached, np.zeros(3, dtype=int),
                               np.zeros((2, 2)), 2)
        with pytest.raises(InferenceError):
            smooth_predictions(attached, np.zeros(8, dtype=int),
                               np.zeros((3, 2)), 2)
        with pytest.raises(InferenceError):
            smooth_predictions(attached, np.zeros(8, dtype=int),
                               np.zeros((2, 2)), 2, alpha=1.5)
