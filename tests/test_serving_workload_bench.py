"""Poisson arrivals, request splitting and latency accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InferenceError, ServingError
from repro.serving import PoissonWorkload, split_requests
from repro.serving.stats import latency_percentiles


class TestWorkloads:
    def test_arrivals_deterministic_and_increasing(self):
        workload = PoissonWorkload(rate=100.0)
        first = workload.arrivals(50, 123)
        second = workload.arrivals(50, 123)
        assert np.array_equal(first, second)
        assert (np.diff(first) > 0).all()

    def test_poisson_rate_matches(self):
        workload = PoissonWorkload(rate=200.0)
        arrivals = workload.arrivals(4000, np.random.default_rng(0))
        mean_gap = float(np.diff(arrivals).mean())
        assert mean_gap == pytest.approx(1.0 / 200.0, rel=0.1)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("rate", [5.0, 200.0, 500.0])
    def test_arrivals_equal_sequential_gap_sum(self, seed, rate):
        # one exponential gap per request, summed in order: the draws
        # and the additions match a scalar loop bit for bit
        rng = np.random.default_rng(seed)
        expected, t = [], 0.0
        for _ in range(300):
            t += rng.exponential(1.0 / rate)
            expected.append(t)
        got = PoissonWorkload(rate).arrivals(300, np.random.default_rng(seed))
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(expected))
        assert PoissonWorkload(rate).arrivals(0, seed).shape == (0,)

    def test_seed_and_generator_draw_the_same_arrivals(self):
        workload = PoissonWorkload(rate=50.0)
        assert np.array_equal(workload.arrivals(40, 3),
                              workload.arrivals(40,
                                                np.random.default_rng(3)))

    def test_validation(self):
        with pytest.raises(ServingError):
            PoissonWorkload(rate=0.0)
        with pytest.raises(ServingError):
            PoissonWorkload(rate=5.0).arrivals(-1)


class TestSplitRequests:
    def test_cycles_when_stream_longer_than_batch(self, tiny_split):
        batch = tiny_split.incremental_batch("val")
        stream = split_requests(batch, batch.num_nodes + 3, 1)
        assert len(stream) == batch.num_nodes + 3
        assert np.array_equal(stream[0].features,
                              stream[batch.num_nodes].features)

    def test_request_sizes(self, tiny_split):
        stream = split_requests(tiny_split.incremental_batch("val"), 4, 3)
        assert all(request.num_nodes == 3 for request in stream)

    def test_validation(self, tiny_split):
        batch = tiny_split.incremental_batch("val")
        with pytest.raises(ServingError):
            split_requests(batch, 0)
        with pytest.raises(ServingError):
            split_requests(batch.subset(np.array([], dtype=int)), 4)


class TestPercentileHelpers:
    def test_latency_percentiles_ordered(self):
        tail = latency_percentiles(np.arange(100))
        assert tail["p50"] <= tail["p95"] <= tail["p99"]
        assert set(tail) == {"p50", "p95", "p99"}

    def test_latency_percentiles_empty(self):
        with pytest.raises(InferenceError):
            latency_percentiles([])

    def test_latency_percentiles_empty_value(self):
        tail = latency_percentiles([], empty=float("nan"))
        assert set(tail) == {"p50", "p95", "p99"}
        assert all(np.isnan(v) for v in tail.values())

    def test_latency_percentiles_single_sample(self):
        tail = latency_percentiles([0.25])
        assert tail["p50"] == tail["p95"] == tail["p99"] == 0.25


class TestEmptyWindowAccounting:
    """Polling a runtime before its first completed request must be
    NaN-safe — zeros would read as real (excellent) measurements."""

    def test_empty_summary_is_nan_not_zero(self):
        from repro.serving.stats import LatencyAccounting
        stats = LatencyAccounting().summary()
        assert stats.requests == 0
        for value in (stats.latency_p50, stats.latency_p95,
                      stats.latency_p99, stats.latency_mean,
                      stats.queue_wait_mean, stats.compute_mean):
            assert np.isnan(value)
        assert stats.throughput_rps == 0.0

    def test_empty_as_dict_is_json_clean(self):
        import json
        from repro.serving.stats import LatencyAccounting
        payload = LatencyAccounting().summary().as_dict()
        assert payload["latency_p95_ms"] is None
        assert payload["compute_mean_ms"] is None
        json.loads(json.dumps(payload, allow_nan=False))  # strict JSON

    def test_rejections_still_reported_with_nan_latency(self):
        from repro.serving.stats import LatencyAccounting
        accounting = LatencyAccounting()
        accounting.observe_rejection(3)
        stats = accounting.summary()
        assert stats.rejected == 3
        assert np.isnan(stats.latency_p50)

    def test_single_sample_window(self):
        from repro.serving.stats import LatencyAccounting, RequestRecord
        accounting = LatencyAccounting()
        record = RequestRecord(num_nodes=1, queue_seconds=0.01,
                               compute_seconds=0.02, batch_size=1)
        accounting.observe_batch([record], started=1.0, finished=1.05)
        stats = accounting.summary()
        assert stats.requests == 1
        assert stats.latency_p50 == pytest.approx(0.03)
        assert stats.latency_p50 == stats.latency_p99
        assert stats.as_dict()["latency_p95_ms"] == pytest.approx(30.0)
