"""Storage precision, the frozen path's kernels and its accuracy bound.

Numeric precision is a storage format only: ``DeploymentBundle.save(
precision=...)`` narrows the artifact, ``load`` widens every member back
to float64, and every serving path computes in float64.  These tests
pin the int8 quantizer, the zero-degree masking that must survive a
narrowed round trip, the fused frozen kernels against an unfused oracle,
the frozen path's declared accuracy bound, and streaming deltas on a
narrowed artifact.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.api import PRECISIONS, _dequantize, _quantize_columns
from repro.cli import build_parser
from repro.errors import ConfigError
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.stream import make_delta_trace
from repro.nn import make_model
from repro.serving import PreparedDeployment, ServingFleet, ServingRuntime
from repro.serving.prepared import _fused_scale, _intra_loops, _inv_sqrt
from repro.tensor.tensor import Tensor, no_grad

REDUCED = ("float32", "int8")
BATCH_MODES = ("graph", "node")


class TestInvSqrt:
    def test_zero_degree_rows_stay_exactly_zero(self):
        degrees = np.array([4.0, 0.0, 1.0, 0.0, 9.0])
        inv = _inv_sqrt(degrees)
        assert inv[1] == 0.0 and inv[3] == 0.0
        assert np.array_equal(inv, np.array([0.5, 0.0, 1.0, 0.0, 1.0 / 3]))

    def test_empty_input(self):
        assert _inv_sqrt(np.array([])).shape == (0,)


class TestFusedScale:
    def _block(self):
        rng = np.random.default_rng(11)
        dense = (rng.random((6, 8)) * (rng.random((6, 8)) < 0.5))
        return sp.csr_matrix(dense)

    def test_matches_unfused_reference_bitwise(self):
        block = self._block()
        inv_row = _inv_sqrt(np.arange(6, dtype=np.float64))
        inv_col = _inv_sqrt(np.arange(8, dtype=np.float64) % 3)
        fused = _fused_scale(block, inv_row, inv_col)
        # the unfused reference: dense diagonal scaling with the same
        # (inv_row * a) * inv_col multiply order, read back at the
        # block's stored positions (dense keeps the masked zeros that
        # a sparse product would prune away)
        dense = (inv_row[:, None] * block.toarray()) * inv_col[None, :]
        rows = np.repeat(np.arange(6), np.diff(block.indptr))
        assert fused.dtype == np.float64
        assert np.array_equal(fused, dense[rows, block.indices])

    def test_zero_degree_masking_is_exact(self):
        block = self._block()
        inv_row = np.array([0.7, 0.0, 0.3, 0.0, 1.1, 0.5])
        inv_col = np.array([0.2, 0.0, 0.4, 0.9, 0.0, 0.6, 0.1, 0.8])
        scaled = _fused_scale(block, inv_row, inv_col)
        rows = np.repeat(np.arange(6), np.diff(block.indptr))
        masked = (inv_row[rows] == 0) | (inv_col[block.indices] == 0)
        assert np.all(scaled[masked] == 0.0)  # exact, not approximate
        assert np.all(scaled[~masked] != 0.0)

    def test_empty_block(self):
        empty = sp.csr_matrix((0, 5))
        out = _fused_scale(empty, np.zeros(0), np.ones(5))
        assert out.shape == (0,)
        dense_zero = sp.csr_matrix((3, 5))  # rows without stored entries
        out = _fused_scale(dense_zero, np.ones(3), np.ones(5))
        assert out.shape == (0,)


class TestInt8Quantization:
    def test_exact_zeros_round_trip_exactly(self):
        matrix = np.array([[0.0, 1.5], [0.0, -3.0], [0.0, 0.25]])
        q, scale = _quantize_columns(matrix)
        back = _dequantize(q, scale)
        assert back.dtype == np.float64  # widened on load, not later
        assert np.all(back[:, 0] == 0.0)  # the all-zero column
        assert np.all((matrix == 0.0) == (back == 0.0))

    def test_all_zero_column_scale_is_one(self):
        q, scale = _quantize_columns(np.zeros((4, 3)))
        assert np.array_equal(scale, np.ones(3, dtype=np.float32))
        assert np.array_equal(q, np.zeros((4, 3), dtype=np.int8))

    def test_values_clip_to_int8_range(self):
        matrix = np.array([[-10.0, 127.0], [10.0, -254.0]])
        q, scale = _quantize_columns(matrix)
        assert q.dtype == np.int8
        assert q.min() >= -127 and q.max() <= 127
        assert np.abs(_dequantize(q, scale) - matrix).max() <= np.abs(
            matrix).max() / 127

    def test_empty_matrix(self):
        q, scale = _quantize_columns(np.zeros((0, 4)))
        assert q.shape == (0, 4) and scale.shape == (4,)
        assert _dequantize(q, scale).shape == (0, 4)


# ----------------------------------------------------------------------
# Narrowed artifacts: masking survives the round trip, serving is float64
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def masked_prepared(tmp_path_factory):
    """One deployment per storage mode over a base graph with isolated
    nodes (their only base_loops entry is the self-loop) and planted
    exact-zero feature entries — the masking boundary cases — each
    saved at its mode, loaded back and prepared."""
    rng = np.random.default_rng(5)
    n, d, classes = 24, 12, 3
    dense = (rng.random((n, n)) < 0.18).astype(np.float64)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    for isolated in (7, 13):  # two isolated nodes: degree exactly zero
        dense[isolated, :] = 0.0
        dense[:, isolated] = 0.0
    features = rng.standard_normal((n, d))
    features[np.abs(features) < 0.3] = 0.0  # plant exact zeros
    base = Graph(sp.csr_matrix(dense), features,
                 rng.integers(0, classes, size=n))
    model = make_model("sgc", d, classes, seed=0)
    bundle = api.DeploymentBundle(
        model_name="sgc", model_config=dict(model.build_config),
        state=model.state_dict(), deployment="original", base=base)
    root = tmp_path_factory.mktemp("masked")
    return {mode: api.DeploymentBundle.load(
                bundle.save(root / mode, precision=mode)).prepare()
            for mode in PRECISIONS}


def _batch(features, incremental):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    return IncrementalBatch(
        features=features, incremental=sp.csr_matrix(incremental),
        intra=sp.csr_matrix((n, n)),
        labels=np.full(n, -1, dtype=np.int64))


class TestNarrowedArtifacts:
    @pytest.mark.parametrize("mode", PRECISIONS)
    def test_load_widens_every_member_to_float64(self, masked_prepared,
                                                 mode):
        prepared = masked_prepared[mode]
        assert prepared.base.features.dtype == np.float64
        assert prepared.base.adjacency.dtype == np.float64
        assert prepared.base_features.dtype == np.float64
        assert all(param.data.dtype == np.float64
                   for _, param in prepared.model.named_parameters())

    @pytest.mark.parametrize("mode", PRECISIONS)
    @pytest.mark.parametrize("batch_mode", BATCH_MODES)
    def test_empty_batch(self, masked_prepared, mode, batch_mode):
        batch = _batch(np.zeros((0, 12)), sp.csr_matrix((0, 24)))
        logits, _, _ = masked_prepared[mode].serve_batch_frozen(batch,
                                                                batch_mode)
        assert logits.shape == (0, 3)

    @pytest.mark.parametrize("mode", PRECISIONS)
    def test_explicit_zero_weight_links_contribute_exactly_nothing(
            self, masked_prepared, mode):
        # a stored-but-zero incremental weight must serve bitwise
        # identically to no link at all: it adds nothing to the degree
        # and is eliminated before the fused scaling
        prepared = masked_prepared[mode]
        feats = np.random.default_rng(9).standard_normal((2, 12))
        zero_link = sp.csr_matrix(
            (np.array([0.0]), (np.array([0]), np.array([3]))),
            shape=(2, 24))
        logits_zero, _, _ = prepared.serve_batch_frozen(
            _batch(feats, zero_link), "node")
        logits_none, _, _ = prepared.serve_batch_frozen(
            _batch(feats, sp.csr_matrix((2, 24))), "node")
        assert np.array_equal(logits_zero, logits_none)

    def test_narrowed_artifacts_keep_the_float64_zero_pattern(
            self, masked_prepared):
        batch = _batch(np.zeros((3, 12)), np.zeros((3, 24)))  # no links
        reference, _, _ = masked_prepared["float64"].serve_batch_frozen(
            batch, "node")
        for mode in REDUCED:
            logits, _, _ = masked_prepared[mode].serve_batch_frozen(
                batch, "node")
            # zero features + zero links propagate exact zeros before the
            # classifier bias, so the logits coincide
            assert np.array_equal(logits == 0.0, reference == 0.0)
            np.testing.assert_allclose(logits, reference, rtol=1e-5,
                                       atol=1e-6)

    def test_unknown_storage_precision_rejected(self, masked_prepared,
                                                tmp_path):
        bundle = api.DeploymentBundle(
            model_name="sgc",
            model_config=dict(masked_prepared["float64"].model.build_config),
            state=masked_prepared["float64"].model.state_dict(),
            deployment="original", base=masked_prepared["float64"].base)
        with pytest.raises(ConfigError, match="precision"):
            bundle.save(tmp_path / "half", precision="float16")

    def test_saved_modes_hold_accuracy_and_shrink_the_artifact(
            self, pubmed_original_bundle, tmp_path):
        """Each storage mode served the way production sees it (save at
        the mode → load → ``prepare()``) through both ``predict`` paths
        in both batch modes: float32 and int8 stay within 0.5 accuracy
        points of the float64 artifact, and the artifacts really
        shrink."""
        batch = api.evaluation_batch(pubmed_original_bundle)
        labels = np.asarray(batch.labels)
        size, accuracy = {}, {}
        for mode in PRECISIONS:
            path = pubmed_original_bundle.save(tmp_path / mode,
                                               precision=mode)
            size[mode] = path.stat().st_size
            prepared = api.DeploymentBundle.load(path).prepare()
            for batch_mode in BATCH_MODES:
                for serve in (prepared.serve_batch,
                              prepared.serve_batch_frozen):
                    logits, _, _ = serve(batch, batch_mode)
                    accuracy[mode, batch_mode, serve.__name__] = float(
                        (logits.argmax(axis=1) == labels).mean())
        for (mode, batch_mode, path_name), value in accuracy.items():
            drop = accuracy["float64", batch_mode, path_name] - value
            assert drop <= 0.005, (mode, batch_mode, path_name, accuracy)
        assert size["float32"] < size["float64"]
        assert size["int8"] <= 0.5 * size["float64"]

    @pytest.mark.parametrize("mode", REDUCED)
    def test_narrowed_artifact_streams_like_a_fresh_prepare(
            self, pubmed_original_bundle, tmp_path, pad_incremental, mode):
        """A narrowed original-graph artifact ingests deltas: the evolved
        deployment serves bitwise what a fresh ``prepare()`` on the
        evolved graph serves (the ``evolved_equals_fresh`` contract)."""
        path = pubmed_original_bundle.save(tmp_path / mode, layout="mmap",
                                           precision=mode)
        bundle = api.DeploymentBundle.load(path, mmap=True)
        batch = api.evaluation_batch(bundle)
        prepared = bundle.prepare()
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        for delta in make_delta_trace(bundle.base, batch, num_deltas=3,
                                      nodes_per_delta=2, edges_per_delta=2,
                                      removals_per_delta=1,
                                      updates_per_delta=1, seed=0):
            prepared.apply_delta(delta)
        fresh = PreparedDeployment(bundle.model(), "original", prepared.base)
        probe = pad_incremental(batch.subset(np.arange(20, 24)),
                                prepared.num_base)
        for hop_a, hop_b in zip(prepared.propagated_base_features(),
                                fresh.propagated_base_features()):
            assert np.array_equal(hop_a, hop_b)
        for batch_mode in BATCH_MODES:
            for name in ("serve_batch", "serve_batch_frozen"):
                evolved, _, _ = getattr(prepared, name)(probe, batch_mode)
                reference, _, _ = getattr(fresh, name)(probe, batch_mode)
                assert np.array_equal(evolved, reference), (name, batch_mode)


# ----------------------------------------------------------------------
# The frozen path: an unfused oracle and a declared accuracy bound
# ----------------------------------------------------------------------
def _scaled_copy(block: sp.csr_matrix, inv_row, inv_col) -> sp.csr_matrix:
    """A materialized copy of ``D_row^-1/2 · block · D_col^-1/2`` in the
    ``(inv_row[i] * a_ij) * inv_col[j]`` multiply order."""
    scaled = block.copy()
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    scaled.data = (inv_row[rows] * block.data) * inv_col[block.indices]
    return scaled


def _unfused_frozen(prepared: PreparedDeployment, batch: IncrementalBatch,
                    batch_mode: str) -> np.ndarray:
    """The frozen path without its row-scale shortcut: materialized
    scaled block copies, an ``ea + I`` CSR product in every batch mode,
    and scipy's ``sum(axis=1)`` degrees."""
    n = batch.features.shape[0]
    inc, _ = prepared._converted_incremental(batch.incremental, n)
    ea_loops, _ = _intra_loops(batch.intra if batch_mode == "graph"
                               else None, n)
    inv_new = _inv_sqrt(np.asarray(inc.sum(axis=1)).reshape(-1)
                        + np.asarray(ea_loops.sum(axis=1)).reshape(-1))
    op_nb = _scaled_copy(inc, inv_new, prepared._inv_sqrt_degrees())
    op_nn = _scaled_copy(ea_loops, inv_new, inv_new)
    hops = prepared.propagated_base_features()
    h = np.asarray(batch.features, dtype=np.float64)
    for k in range(prepared.model.k_hops):
        h = op_nb @ hops[k] + op_nn @ h
    with no_grad():
        return prepared.model.classifier(Tensor(h)).data


@pytest.fixture(scope="module")
def pubmed_deployments(pubmed_original_bundle, pubmed_synthetic_bundle):
    """``deployment -> (prepared, evaluation batch)``."""
    return {bundle.deployment: (bundle.prepare(),
                                api.evaluation_batch(bundle))
            for bundle in (pubmed_original_bundle, pubmed_synthetic_bundle)}


class TestFrozenPath:
    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", BATCH_MODES)
    def test_fused_kernels_match_the_unfused_oracle_bitwise(
            self, pubmed_deployments, deployment, batch_mode):
        prepared, batch = pubmed_deployments[deployment]
        logits, _, _ = prepared.serve_batch_frozen(batch, batch_mode)
        assert np.array_equal(logits,
                              _unfused_frozen(prepared, batch, batch_mode))

    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", BATCH_MODES)
    def test_frozen_accuracy_within_one_node_of_exact(
            self, pubmed_deployments, deployment, batch_mode):
        """The frozen path's declared bound (``docs/precision.md``): on
        the 60-node evaluation batch it misclassifies at most one node
        more than the exact path.  One node is 1.7 accuracy points here,
        so a 0.5-point bound would demand frozen ≥ exact outright."""
        prepared, batch = pubmed_deployments[deployment]
        labels = np.asarray(batch.labels)
        exact, _, _ = prepared.serve_batch_exact(batch, batch_mode)
        frozen, _, _ = prepared.serve_batch_frozen(batch, batch_mode)
        exact_hits = int((exact.argmax(axis=1) == labels).sum())
        frozen_hits = int((frozen.argmax(axis=1) == labels).sum())
        assert labels.size == 60
        assert frozen_hits >= exact_hits - 1, (exact_hits, frozen_hits)


# ----------------------------------------------------------------------
# No serving knob: the save-time storage precision is the only option
# ----------------------------------------------------------------------
SERVING_ENTRY_POINTS = {
    "PreparedDeployment": PreparedDeployment.__init__,
    "PreparedDeployment.from_bundle": PreparedDeployment.from_bundle,
    "ServingRuntime": ServingRuntime.__init__,
    "ServingFleet": ServingFleet.__init__,
    "DeploymentBundle.prepare": api.DeploymentBundle.prepare,
    "open_runtime": api.open_runtime,
    "open_fleet": api.open_fleet,
    "open_gateway": api.open_gateway,
}


class TestNoServingKnob:
    @pytest.mark.parametrize("name", sorted(SERVING_ENTRY_POINTS))
    def test_entry_point_takes_no_precision_or_fused(self, name):
        parameters = inspect.signature(SERVING_ENTRY_POINTS[name]).parameters
        assert not {"precision", "fused"} & set(parameters)

    @pytest.mark.parametrize("command", ("serve", "serve-online",
                                         "serve-stream", "serve-fleet",
                                         "serve-gateway"))
    def test_serve_cli_rejects_precision(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "--artifact", "art.npz", "--precision", "int8"])
        assert exit_info.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_condense_keeps_the_storage_precision(self):
        args = build_parser().parse_args(
            ["condense", "--dataset", "tiny-sim", "--precision", "int8"])
        assert args.precision == "int8"
