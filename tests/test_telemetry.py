"""Telemetry substrate: registry, exposition, tracing."""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    TelemetryError,
    TraceContext,
    TraceLog,
    histogram_quantile,
    new_trace_id,
    parse_exposition,
    render_exposition,
    stage_span,
    use_trace,
)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        requests = registry.counter("repro_t_requests_total", "requests",
                                    ("outcome",))
        requests.inc(outcome="served")
        requests.inc(2, outcome="served")
        requests.inc(outcome="shed")
        assert requests.value(outcome="served") == 3.0
        assert requests.value(outcome="shed") == 1.0

    def test_absent_child_reads_zero(self):
        registry = MetricsRegistry()
        requests = registry.counter("repro_t_requests_total", "requests",
                                    ("outcome",))
        assert requests.value(outcome="never") == 0.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        errors = registry.counter("repro_t_errors_total", "errors")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            errors.inc(-1)

    def test_label_set_must_match_schema_exactly(self):
        registry = MetricsRegistry()
        requests = registry.counter("repro_t_requests_total", "requests",
                                    ("outcome",))
        with pytest.raises(TelemetryError, match="takes labels"):
            requests.inc()
        with pytest.raises(TelemetryError, match="takes labels"):
            requests.inc(outcome="ok", extra="nope")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("0bad", "help")
        with pytest.raises(TelemetryError, match="invalid label name"):
            registry.counter("repro_t_total", "help", ("le",))


# ----------------------------------------------------------------------
# Gauges
# ----------------------------------------------------------------------
class TestGauge:
    def test_callback_gauge_reads_live_value(self):
        state = {"depth": 7}
        registry = MetricsRegistry()
        depth = registry.gauge("repro_t_depth", "queue depth",
                               callback=lambda: state["depth"])
        assert depth.value() == 7.0
        state["depth"] = 2
        assert depth.value() == 2.0
        assert depth.samples() == [("repro_t_depth", {}, 2.0)]

    def test_gauge_needs_a_callback(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.gauge("repro_t_depth", "d")

    def test_gauge_is_read_only(self):
        # a gauge reports a value that lives elsewhere; nothing writes it
        registry = MetricsRegistry()
        depth = registry.gauge("repro_t_depth", "d", callback=lambda: 5)
        for writer in ("set", "inc", "dec"):
            assert not hasattr(depth, writer)
        assert depth.value() == 5.0

    def test_callback_gauge_rejects_labels(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.gauge("repro_t_depth", "d", ("replica",),
                           callback=lambda: 0)


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_snapshot_is_cumulative(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_t_seconds", "latency")
        for value in (0.05, 0.5, 0.5, 5.0):
            latency.observe(value)
        snapshot = latency.snapshot()
        assert [le for le, _ in snapshot["buckets"]] == [
            *DEFAULT_LATENCY_BUCKETS, math.inf]
        cumulative = dict(snapshot["buckets"])
        assert [cumulative[le] for le in (0.025, 0.05, 0.5, 2.5, 5.0,
                                          math.inf)] == [0, 1, 3, 3, 4, 4]
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(6.05)

    def test_boundary_value_lands_in_its_le_bucket(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_t_seconds", "latency")
        latency.observe(0.1)  # le="0.1" is an inclusive upper bound
        cumulative = dict(latency.snapshot()["buckets"])
        assert (cumulative[0.05], cumulative[0.1]) == (0, 1)

    def test_sub_millisecond_stages_resolve(self):
        # a 50 µs stage must not be smeared across a first bucket that
        # starts at 0.5 ms (which interpolated its p50 to 0.25 ms)
        registry = MetricsRegistry()
        latency = registry.histogram("repro_t_seconds", "latency")
        for _ in range(100):
            latency.observe(50e-6)
        p50 = histogram_quantile(latency.snapshot()["buckets"], 0.5)
        assert p50 < 1e-4

    def test_empty_child_snapshot(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_t_seconds", "latency")
        snapshot = latency.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["buckets"] == [
            (le, 0) for le in (*DEFAULT_LATENCY_BUCKETS, math.inf)]


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "t", ("outcome",))
        second = registry.counter("repro_t_total", "other help",
                                  ("outcome",))
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t")
        with pytest.raises(TelemetryError, match="already registered as"):
            registry.gauge("repro_t_total", "t", callback=lambda: 0)

    def test_label_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t", ("outcome",))
        with pytest.raises(TelemetryError, match="already registered with"):
            registry.counter("repro_t_total", "t", ("mode",))

    def test_collect_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t", ("outcome",)).inc(
            outcome="served")
        snapshot = json.loads(json.dumps(registry.collect()))
        samples = snapshot["repro_t_total"]["samples"]
        assert samples == [{"name": "repro_t_total",
                            "labels": {"outcome": "served"}, "value": 1.0}]


# ----------------------------------------------------------------------
# Exposition: render, merge, parse
# ----------------------------------------------------------------------
class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_requests_total", "requests",
                         ("outcome",)).inc(3, outcome="served")
        registry.gauge("repro_t_inflight", "inflight", callback=lambda: 2)
        registry.histogram("repro_t_seconds", "latency").observe(0.05)
        page = registry.render()
        assert "# HELP repro_t_requests_total requests" in page
        assert "# TYPE repro_t_seconds histogram" in page
        samples = parse_exposition(page)
        assert samples["repro_t_requests_total"] == [
            ({"outcome": "served"}, 3.0)]
        assert samples["repro_t_inflight"] == [({}, 2.0)]
        assert ({"le": "+Inf"}, 1.0) in samples["repro_t_seconds_bucket"]
        assert samples["repro_t_seconds_count"] == [({}, 1.0)]

    def test_merge_shares_same_name_families(self):
        gateway, fleet = MetricsRegistry(), MetricsRegistry()
        for registry, component in ((gateway, "gateway"), (fleet, "fleet")):
            registry.histogram("repro_stage_latency_seconds", "stages",
                               ("component", "stage")).observe(
                0.5, component=component, stage="serve")
        page = render_exposition(gateway, fleet)
        assert page.count("# TYPE repro_stage_latency_seconds") == 1
        counts = parse_exposition(page)["repro_stage_latency_seconds_count"]
        assert ({"component": "gateway", "stage": "serve"}, 1.0) in counts
        assert ({"component": "fleet", "stage": "serve"}, 1.0) in counts

    def test_merge_rejects_conflicting_schemas(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_t_total", "t", ("outcome",))
        second.gauge("repro_t_total", "t", callback=lambda: 0)
        with pytest.raises(TelemetryError, match="conflicting schemas"):
            render_exposition(first, second)

    def test_merge_rejects_duplicate_label_sets(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for registry in (first, second):
            registry.counter("repro_t_total", "t", ("outcome",)).inc(
                outcome="served")
        with pytest.raises(TelemetryError, match="duplicate sample"):
            render_exposition(first, second)

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t", ("mode",)).inc(
            mode='we"ird\\mo\nde')
        samples = parse_exposition(registry.render())
        assert samples["repro_t_total"] == [({"mode": 'we"ird\\mo\nde'}, 1.0)]

    def test_malformed_lines_rejected(self):
        with pytest.raises(TelemetryError, match="malformed"):
            parse_exposition("this is not exposition\n")
        with pytest.raises(TelemetryError, match="malformed"):
            parse_exposition("repro_t_total not-a-number\n")


class TestHistogramQuantile:
    def test_empty_histogram_returns_none(self):
        assert histogram_quantile([], 0.5) is None
        assert histogram_quantile([(1.0, 0), (math.inf, 0)], 0.5) is None

    def test_interpolates_inside_winning_bucket(self):
        buckets = [(1.0, 10), (2.0, 20), (math.inf, 20)]
        assert histogram_quantile(buckets, 0.5) == pytest.approx(1.0)
        assert histogram_quantile(buckets, 0.75) == pytest.approx(1.5)

    def test_tail_quantile_capped_at_highest_finite_bound(self):
        buckets = [(1.0, 1), (math.inf, 10)]
        assert histogram_quantile(buckets, 0.99) == pytest.approx(1.0)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(TelemetryError, match="quantile"):
            histogram_quantile([(1.0, 1)], 1.5)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)

    def test_same_name_spans_sum(self):
        trace = TraceContext("t" * 16)
        trace.add_stage("serve", 0.1)
        trace.add_stage("serve", 0.2)
        assert trace.stages()["serve"] == pytest.approx(0.3)

    def test_finish_is_idempotent(self):
        trace = TraceContext()
        first = trace.finish()
        assert trace.finish() == first
        assert trace.total_seconds == first

    def test_as_dict_carries_labels_and_ms(self):
        trace = TraceContext("a" * 16, labels={"mode": "node"})
        trace.add_stage("serve", 0.25)
        trace.finish()
        payload = trace.as_dict()
        assert payload["trace_id"] == "a" * 16
        assert payload["mode"] == "node"
        assert payload["stages_ms"]["serve"] == pytest.approx(250.0)


class TestContextVarPlumbing:
    def test_use_trace_installs_and_restores(self):
        trace = TraceContext()
        with stage_span("before"):
            pass
        with use_trace(trace):
            with stage_span("inside"):
                pass
        with stage_span("after"):
            pass
        # spans outside the with body reach no trace
        assert [span.stage for span in trace.spans] == ["inside"]

    def test_stage_span_without_trace_runs_body_and_records_nothing(self):
        ran = []
        with stage_span("serve"):
            with stage_span("operator"):
                ran.append(True)
        assert ran == [True]
        # the untraced spans left nothing on a trace installed afterwards
        trace = TraceContext()
        with use_trace(trace):
            with stage_span("collect"):
                pass
        assert [span.stage for span in trace.spans] == ["collect"]

    def test_stage_span_records_a_raising_body(self):
        trace = TraceContext()
        with use_trace(trace):
            with pytest.raises(RuntimeError):
                with stage_span("serve"):
                    raise RuntimeError("boom")
            # the failed span popped its name: the next one is not nested
            with stage_span("collect"):
                pass
        assert [span.stage for span in trace.spans] == ["serve", "collect"]

    def test_inner_use_trace_shadows_outer(self):
        outer, inner = TraceContext(), TraceContext()
        with use_trace(outer):
            with use_trace(inner):
                with stage_span("serve"):
                    pass
            with use_trace(None):
                with stage_span("hidden"):
                    pass
            with stage_span("reply"):
                pass
        assert [span.stage for span in inner.spans] == ["serve"]
        assert [span.stage for span in outer.spans] == ["reply"]

    def test_stage_span_nests_dotted_names(self):
        trace = TraceContext()
        with use_trace(trace):
            with stage_span("serve"):
                with stage_span("operator"):
                    pass
                with stage_span("forward"):
                    pass
        names = [span.stage for span in trace.spans]
        assert names == ["serve.operator", "serve.forward", "serve"]


class TestTraceLog:
    def _trace(self, seconds: float) -> TraceContext:
        trace = TraceContext()
        trace.add_stage("serve", seconds)
        trace._total = seconds  # pin the total for deterministic ordering
        return trace

    def test_ring_is_bounded(self):
        ring = TraceLog(capacity=4)
        traces = [self._trace(i / 10) for i in range(6)]
        for trace in traces:
            ring.observe(trace)
        assert len(ring) == 4
        assert traces[0] not in ring.slowest(10)

    def test_slowest_sorts_worst_first(self):
        ring = TraceLog(capacity=8)
        for seconds in (0.2, 0.5, 0.1):
            ring.observe(self._trace(seconds))
        totals = [trace.total_seconds for trace in ring.slowest(2)]
        assert totals == [0.5, 0.2]

    def test_observe_freezes_the_total(self):
        ring = TraceLog(capacity=2)
        trace = TraceContext()
        ring.observe(trace)
        total = trace.total_seconds
        time.sleep(0.002)
        assert trace.total_seconds == total
        assert ring.slowest(1)[0].total_seconds == total

    def test_slowest_of_no_traces_is_empty(self):
        ring = TraceLog(capacity=2)
        ring.observe(self._trace(0.1))
        assert ring.slowest(0) == []
        assert ring.slowest(-1) == []

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceLog(capacity=0)


# ----------------------------------------------------------------------
# Thread safety
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        served = registry.counter("repro_t_total", "t", ("outcome",))
        latency = registry.histogram("repro_t_seconds", "l")

        def worker():
            for _ in range(500):
                served.inc(outcome="served")
                latency.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert served.value(outcome="served") == 2000.0
        assert latency.snapshot()["count"] == 2000

    def test_render_during_concurrent_observe(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_t_seconds", "l")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                latency.observe(0.5)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                parse_exposition(registry.render())
        finally:
            stop.set()
            thread.join()
        buckets = np.array(
            [v for _, v in latency.snapshot()["buckets"]])
        assert (np.diff(buckets) >= 0).all()

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS))
