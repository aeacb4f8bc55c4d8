"""Numeric serving modes: kernels, masking semantics, mode plumbing.

The reduced-precision contract is accuracy-gated, not bitwise — but the
*masking* semantics (zero-degree rows stay exactly zero) must match the
float64 path exactly in every mode.  These tests pin that boundary for
``_inv_sqrt``, the fused-scale kernel, the int8 quantizer, and the
frozen serve path end to end, including empty batches.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.graph.stream import GraphDelta
from repro.nn import make_model
from repro.serving import PreparedDeployment
from repro.serving.prepared import (
    PRECISIONS,
    _dequantize,
    _fused_scale,
    _inv_sqrt,
    _quantize_columns,
)

REDUCED = ("float32", "int8")


class TestInvSqrt:
    def test_zero_degree_rows_stay_exactly_zero(self):
        degrees = np.array([4.0, 0.0, 1.0, 0.0, 9.0])
        inv = _inv_sqrt(degrees)
        assert inv[1] == 0.0 and inv[3] == 0.0
        assert np.array_equal(inv, np.array([0.5, 0.0, 1.0, 0.0, 1.0 / 3]))

    def test_zeros_survive_the_float32_cast_exactly(self):
        # reduced modes inherit the float64 mask by casting: exact zeros
        # must stay exact zeros, not become tiny non-zero values
        degrees = np.array([0.0, 2.0, 0.0])
        inv32 = _inv_sqrt(degrees).astype(np.float32)
        assert inv32[0] == np.float32(0.0)
        assert inv32[2] == np.float32(0.0)
        assert inv32[1] > 0

    def test_empty_input(self):
        assert _inv_sqrt(np.array([])).shape == (0,)


class TestFusedScale:
    def _block(self):
        rng = np.random.default_rng(11)
        dense = (rng.random((6, 8)) * (rng.random((6, 8)) < 0.5))
        return sp.csr_matrix(dense)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_matches_unfused_reference_bitwise(self, dtype):
        block = self._block()
        inv_row = _inv_sqrt(np.arange(6, dtype=np.float64)).astype(
            dtype, copy=False)
        inv_col = _inv_sqrt(np.arange(8, dtype=np.float64) % 3).astype(
            dtype, copy=False)
        fused = _fused_scale(block, inv_row, inv_col, dtype)
        # the unfused reference: dense diagonal scaling with the same
        # (inv_row * a) * inv_col multiply order, read back at the
        # block's stored positions (dense keeps the masked zeros that
        # a sparse product would prune away)
        dense = (inv_row[:, None] * block.toarray().astype(dtype)
                 ) * inv_col[None, :]
        rows = np.repeat(np.arange(6), np.diff(block.indptr))
        assert fused.dtype == dtype
        assert np.array_equal(fused, dense[rows, block.indices])

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_zero_degree_masking_is_exact(self, dtype):
        block = self._block()
        inv_row = np.array([0.7, 0.0, 0.3, 0.0, 1.1, 0.5], dtype=dtype)
        inv_col = np.array([0.2, 0.0, 0.4, 0.9, 0.0, 0.6, 0.1, 0.8],
                           dtype=dtype)
        scaled = _fused_scale(block, inv_row, inv_col, dtype)
        rows = np.repeat(np.arange(6), np.diff(block.indptr))
        masked = (inv_row[rows] == 0) | (inv_col[block.indices] == 0)
        assert np.all(scaled[masked] == 0.0)  # exact, not approximate
        assert np.all(scaled[~masked] != 0.0)

    def test_float32_zero_pattern_matches_float64_exactly(self):
        block = self._block()
        inv_row = _inv_sqrt(np.array([2.0, 0.0, 1.0, 4.0, 0.0, 3.0]))
        inv_col = _inv_sqrt(np.arange(8, dtype=np.float64) % 4)
        scaled64 = _fused_scale(block, inv_row, inv_col, np.float64)
        scaled32 = _fused_scale(block, inv_row.astype(np.float32),
                                inv_col.astype(np.float32), np.float32)
        assert np.array_equal(scaled64 == 0.0, scaled32 == 0.0)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_empty_block(self, dtype):
        empty = sp.csr_matrix((0, 5))
        out = _fused_scale(empty, np.zeros(0, dtype=dtype),
                           np.ones(5, dtype=dtype), dtype)
        assert out.shape == (0,)
        dense_zero = sp.csr_matrix((3, 5))  # rows without stored entries
        out = _fused_scale(dense_zero, np.ones(3, dtype=dtype),
                           np.ones(5, dtype=dtype), dtype)
        assert out.shape == (0,)


class TestInt8Quantization:
    def test_exact_zeros_round_trip_exactly(self):
        matrix = np.array([[0.0, 1.5], [0.0, -3.0], [0.0, 0.25]])
        q, scale = _quantize_columns(matrix)
        back = _dequantize(q, scale)
        assert np.all(back[:, 0] == 0.0)  # the all-zero column
        assert back[2, 1] == np.float32(0.0) or back[2, 1] != 0.0
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


@pytest.fixture(scope="module")
def masked_prepared():
    """One prepared deployment per mode over a base graph with isolated
    nodes (their only base_loops entry is the self-loop) and planted
    exact-zero feature entries — the masking boundary cases."""
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
    return {mode: PreparedDeployment(model, "original", base,
                                     precision=mode)
            for mode in PRECISIONS}


def _batch(features, incremental, num_base):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    return IncrementalBatch(
        features=features, incremental=sp.csr_matrix(incremental),
        intra=sp.csr_matrix((n, n)),
        labels=np.full(n, -1, dtype=np.int64))


class TestFrozenModeMasking:
    @pytest.mark.parametrize("mode", PRECISIONS)
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_empty_batch(self, masked_prepared, mode, batch_mode):
        prepared = masked_prepared[mode]
        batch = _batch(np.zeros((0, 12)), sp.csr_matrix((0, 24)), 24)
        logits, _, _ = prepared.serve_batch_frozen(batch, batch_mode)
        assert logits.shape == (0, 3)

    def test_frozen_scaling_is_the_float64_mask_cast_once(
            self, masked_prepared):
        # the mask-then-cast order: reduced modes must hold exactly the
        # float64 D^-1/2 vector cast to storage dtype, never a D^-1/2
        # recomputed in float32 (base_loops keeps degrees positive here,
        # but the cast-order contract is what the kernels rely on)
        inv64 = masked_prepared["float64"]._standalone_inv_sqrt_degrees()
        inv32 = masked_prepared["float32"]._standalone_inv_sqrt_degrees()
        assert inv64.dtype == np.float64 and inv32.dtype == np.float32
        assert np.array_equal(inv32, inv64.astype(np.float32))

    @pytest.mark.parametrize("mode", PRECISIONS)
    def test_explicit_zero_weight_links_contribute_exactly_nothing(
            self, masked_prepared, mode):
        # a stored-but-zero incremental weight must serve bitwise
        # identically to no link at all in every mode: it adds nothing
        # to the degree and is eliminated before the fused scaling
        prepared = masked_prepared[mode]
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((2, 12))
        zero_link = sp.csr_matrix(
            (np.array([0.0]), (np.array([0]), np.array([3]))),
            shape=(2, 24))
        logits_zero, _, _ = prepared.serve_batch_frozen(
            _batch(feats, zero_link, 24), "node")
        logits_none, _, _ = prepared.serve_batch_frozen(
            _batch(feats, sp.csr_matrix((2, 24)), 24), "node")
        assert np.array_equal(logits_zero, logits_none)

    def test_reduced_modes_keep_float64_zero_pattern(self, masked_prepared):
        batch = _batch(np.zeros((3, 12)),  # all-zero features
                       np.zeros((3, 24)), 24)  # and no links
        reference, _, _ = masked_prepared["float64"].serve_batch_frozen(
            batch, "node")
        for mode in REDUCED:
            logits, _, _ = masked_prepared[mode].serve_batch_frozen(
                batch, "node")
            # zero features + zero links propagate exact zeros before the
            # classifier bias in every mode, so the logits coincide
            assert np.array_equal(logits == 0.0, reference == 0.0)
            np.testing.assert_allclose(logits, reference, rtol=1e-5,
                                       atol=1e-6)


class TestModePlumbing:
    def test_invalid_precision_rejected(self, masked_prepared):
        base = masked_prepared["float64"].base
        model = masked_prepared["float64"].model
        with pytest.raises(ServingError, match="precision"):
            PreparedDeployment(model, "original", base, precision="float16")

    @pytest.mark.parametrize("mode", REDUCED)
    def test_streaming_deltas_require_float64(self, masked_prepared, mode):
        delta = GraphDelta(add_features=np.zeros((1, 12)),
                           add_labels=np.array([-1]))
        with pytest.raises(ServingError, match="float64"):
            masked_prepared[mode].apply_delta(delta)

    def test_saved_modes_hold_accuracy_and_shrink_the_artifact(
            self, pubmed_original_bundle, tmp_path):
        """The reduced-precision contract, served the way production sees
        it (save at the mode → load → ``prepare()`` → frozen path): float32
        and int8 stay within 0.5 accuracy points of float64 on the
        evaluation batch, the float64 fused path equals the unfused one
        bitwise, and the artifacts really shrink."""
        from repro import api

        batch = api.evaluation_batch(pubmed_original_bundle)
        labels = np.asarray(batch.labels)
        size, accuracy = {}, {}
        for mode in PRECISIONS:
            path = pubmed_original_bundle.save(tmp_path / mode,
                                               precision=mode)
            size[mode] = path.stat().st_size
            loaded = api.DeploymentBundle.load(path)
            prepared = loaded.prepare()
            assert prepared.precision == mode
            for batch_mode in ("graph", "node"):
                logits, _, _ = prepared.serve_batch_frozen(batch, batch_mode)
                accuracy[mode, batch_mode] = float(
                    (logits.argmax(axis=1) == labels).mean())
                if mode == "float64":  # fused kernels change no bit
                    unfused, _, _ = loaded.prepare(
                        fused=False).serve_batch_frozen(batch, batch_mode)
                    assert np.array_equal(logits, unfused)
        for batch_mode in ("graph", "node"):
            for mode in REDUCED:
                drop = (accuracy["float64", batch_mode]
                        - accuracy[mode, batch_mode])
                assert drop <= 0.005, (mode, batch_mode, accuracy)
        assert size["float32"] < size["float64"]
        assert size["int8"] <= 0.5 * size["float64"]

    @pytest.mark.parametrize("mode", PRECISIONS)
    def test_repr_names_the_mode(self, masked_prepared, mode):
        assert f"precision={mode!r}" in repr(masked_prepared[mode])
