"""Latency accounting edge cases: concurrency, windowing, percentiles."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.serving.stats import (
    DEFAULT_WINDOW,
    LatencyAccounting,
    RequestRecord,
    latency_percentiles,
)


def _record(latency: float, *, nodes: int = 1) -> RequestRecord:
    return RequestRecord(num_nodes=nodes, queue_seconds=0.0,
                         compute_seconds=latency, batch_size=1)


class TestConcurrentAccounting:
    def test_record_during_summary_stays_consistent(self):
        """Producers appending while another thread snapshots.

        The summary must never observe a half-applied batch: every
        snapshot's request count has to be a multiple of the batch size,
        and the final totals must be exact.
        """
        accounting = LatencyAccounting()
        batch = [_record(0.01) for _ in range(5)]
        rounds = 200
        errors: list[Exception] = []

        def producer():
            try:
                for i in range(rounds):
                    accounting.observe_batch(list(batch), float(i),
                                             float(i) + 0.5)
                    accounting.observe_rejection()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=producer) for _ in range(3)]
        for thread in threads:
            thread.start()
        snapshots = [accounting.summary() for _ in range(300)]
        for thread in threads:
            thread.join()
        assert not errors
        for stats in snapshots:
            assert stats.requests % len(batch) == 0
            assert stats.requests == stats.batches * len(batch)
        final = accounting.summary()
        assert final.requests == 3 * rounds * len(batch)
        assert final.batches == 3 * rounds
        assert final.rejected == 3 * rounds

    def test_concurrent_rejections_and_failures_are_exact(self):
        accounting = LatencyAccounting()

        def worker():
            for _ in range(1000):
                accounting.observe_rejection()
                accounting.observe_failure()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = accounting.summary()
        assert stats.rejected == 4000
        assert stats.failed == 4000


class TestSlidingWindow:
    def test_eviction_exactly_at_capacity(self):
        """The window keeps exactly ``window`` records, evicting oldest.

        Fill to precisely the capacity (no eviction yet), then push one
        more batch: the first record must fall out of the percentile
        window while the lifetime counters keep counting.
        """
        accounting = LatencyAccounting(window=8)
        # A pathological outlier first: visible while the window is at
        # capacity, gone the moment one more record lands.
        accounting.observe_batch([_record(100.0)], 0.0, 1.0)
        accounting.observe_batch([_record(0.001) for _ in range(7)],
                                 1.0, 2.0)
        assert len(accounting.records) == 8
        at_capacity = accounting.summary()
        assert at_capacity.latency_p99 > 1.0  # outlier still in window
        accounting.observe_batch([_record(0.001)], 2.0, 3.0)
        assert len(accounting.records) == 8  # capacity, not 9
        evicted = accounting.summary()
        assert evicted.requests == 9  # lifetime counter unaffected
        assert evicted.latency_p99 < 1.0  # outlier evicted
        assert evicted.latency_mean == pytest.approx(0.001)

    def test_default_window_matches_module_constant(self):
        accounting = LatencyAccounting()
        assert accounting.records.maxlen == DEFAULT_WINDOW

    def test_window_of_one_keeps_only_last(self):
        accounting = LatencyAccounting(window=1)
        accounting.observe_batch([_record(5.0), _record(0.25)], 0.0, 1.0)
        stats = accounting.summary()
        assert stats.requests == 2
        assert stats.latency_mean == pytest.approx(0.25)


class TestPercentileInterpolation:
    @pytest.mark.parametrize("samples", [
        [0.1],                                  # single sample
        [0.1, 0.2],                             # interpolation between two
        [1e-9, 1e-9, 1e-9, 10.0],               # duplicate-heavy + outlier
        [float(i) for i in range(100, 0, -1)],  # descending, unsorted
        list(np.geomspace(1e-6, 10.0, 37)),     # log-spread, odd count
        [0.5] * 50,                             # fully degenerate
    ])
    def test_matches_numpy_percentile(self, samples):
        """The shared helper must agree with numpy's linear quantiles."""
        accounting = LatencyAccounting()
        accounting.observe_batch([_record(s) for s in samples], 0.0, 1.0)
        stats = accounting.summary()
        for attr, q in (("latency_p50", 50), ("latency_p95", 95),
                        ("latency_p99", 99)):
            assert getattr(stats, attr) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12)

    def test_helper_and_accounting_share_semantics(self):
        samples = [0.003, 0.001, 0.4, 0.002, 0.1]
        accounting = LatencyAccounting()
        accounting.observe_batch([_record(s) for s in samples], 0.0, 1.0)
        stats = accounting.summary()
        tail = latency_percentiles(samples)
        assert stats.latency_p50 == tail["p50"]
        assert stats.latency_p95 == tail["p95"]
        assert stats.latency_p99 == tail["p99"]

    def test_idle_summary_is_nan_not_zero(self):
        stats = LatencyAccounting().summary()
        assert math.isnan(stats.latency_p50)
        assert math.isnan(stats.latency_mean)
        payload = stats.as_dict()
        assert payload["latency_p50_ms"] is None
        assert payload["latency_mean_ms"] is None
        assert payload["requests"] == 0
