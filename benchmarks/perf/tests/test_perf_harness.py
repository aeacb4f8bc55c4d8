"""Unit tests of the benchmark harness (no timing assertions)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import run as bench  # noqa: E402
from harness.spans import Span, SpanRecorder, self_times  # noqa: E402
from harness.stats import (  # noqa: E402
    UndersizedSample,
    percentile,
    quietest,
    spread,
    tail_percentile,
)
from harness.workloads import WORKLOADS, Workload, build_traffic  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract() -> dict:
    return bench.load_contract()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_child_covered_interval():
    spans = [
        Span("request", 0.0, 10.0, None, 1),
        Span("submit", 1.0, 3.0, 0, 1),
        Span("run_pending", 2.0, 6.0, 0, 1),   # overlaps submit: 2..3 once
        Span("forward", 4.0, 5.0, 2, 1),
        Span("late_child", 9.0, 12.0, 0, 1),   # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))  # 1..6 and 9..10
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0)


def test_parent_fully_covered_by_children_has_zero_self_time():
    spans = [Span("p", 0.0, 4.0, None, None), Span("a", 0.0, 2.0, 0, None),
             Span("b", 2.0, 4.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(0.0)


def test_recorder_nests_inherits_request_and_can_be_switched_off():
    recorder = SpanRecorder()
    with recorder.span("request", 7):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    recorder.enabled = False
    with recorder.span("ignored"):
        pass
    assert len(recorder.spans) == 2
    totals = recorder.total_by_name()
    assert totals["request"]["count"] == 1
    assert totals["request"]["self_s"] <= totals["request"]["total_s"]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_matches_numpy():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0, 25, 50, 75, 95, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_quietest_round_is_on_the_undisturbed_side():
    rounds = [10.0, 11.0, 12.0, 13.0, 30.0]
    # a time is only ever made longer by interference, a rate only lower
    assert quietest(rounds, "lower") == 10.0
    assert quietest(rounds, "higher") == 30.0
    with pytest.raises(ValueError):
        quietest(rounds, "sideways")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(200)), 95.0) == pytest.approx(189.05)
    with pytest.raises(UndersizedSample):
        tail_percentile(list(range(199)), 95.0)
    with pytest.raises(UndersizedSample):
        tail_percentile(list(range(500)), 99.0)


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0 / 3.0)
    assert spread([4.0, 4.0, 4.0]) == 0.0


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny():
    from repro import api

    bundle = api.deploy("tiny-sim", "whole", deployment="original",
                        profile="quick")
    return bundle, api.evaluation_batch(bundle)


def _traffic(tiny, seed: int, **spec):
    bundle, batch = tiny
    spec.setdefault("nodes_per_request", 2)
    workload = Workload(name="tiny", why="test", dataset="tiny-sim",
                        method="whole", **spec)
    return build_traffic(workload, bundle, batch, seed, SpanRecorder(False))


def _same_requests(left, right) -> bool:
    return len(left.tasks) == len(right.tasks) and all(
        np.array_equal(a.batch.features, b.batch.features)
        and (a.batch.incremental != b.batch.incremental).nnz == 0
        for a, b in zip(left.tasks, right.tasks))


def _same_deltas(left, right) -> bool:
    return len(left.deltas) == len(right.deltas) and all(
        np.array_equal(a.add_features, b.add_features)
        and np.array_equal(a.add_edges, b.add_edges)
        and np.array_equal(a.update_index, b.update_index)
        for a, b in zip(left.deltas, right.deltas))


def test_equal_seeds_give_equal_traffic_and_other_seeds_do_not(tiny):
    first = _traffic(tiny, 5, num_deltas=3, nodes_per_delta=2)
    again = _traffic(tiny, 5, num_deltas=3, nodes_per_delta=2)
    other = _traffic(tiny, 6, num_deltas=3, nodes_per_delta=2)
    assert _same_requests(first, again) and _same_deltas(first, again)
    assert np.array_equal(first.labels, again.labels)
    assert not _same_requests(first, other)
    assert not _same_deltas(first, other)


def test_traffic_covers_the_batch_and_tracks_the_growing_base(tiny):
    bundle, batch = tiny
    static = _traffic(tiny, 1)
    assert not static.deltas
    assert len(static.tasks) == batch.num_nodes // 2
    assert sorted(static.labels) == sorted(batch.labels[:len(static.labels)])

    stream = _traffic(tiny, 1, num_deltas=3, nodes_per_delta=2)
    assert len(stream.deltas) == 3
    assert len(stream.tasks) == (batch.num_nodes - 6) // 2
    base = bundle.base.num_nodes
    widths = [task.batch.incremental.shape[1] for task in stream.tasks]
    # four reads per delta: the width grows by two every fourth request,
    # until the trace is exhausted
    assert widths[:4] == [base] * 4 and widths[4:8] == [base + 2] * 4
    assert max(widths) == base + 6
    # the evaluated node set does not depend on the seed
    one, two = (_traffic(tiny, seed, num_deltas=3, nodes_per_delta=2,
                         nodes_per_request=1) for seed in (1, 2))
    assert not np.array_equal(one.labels, two.labels)
    assert sorted(one.labels) == sorted(two.labels) == sorted(batch.labels[6:])
    head = stream.head(5)
    assert (len(head.tasks), len(head.labels), len(head.deltas)) == (5, 10, 1)


# ----------------------------------------------------------------------
# names: code, BENCHMARK.json and the contract's limits agree
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/perf"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        metric["bound"] for metric in contract["end_to_end"])


def test_workloads_in_code_are_the_declared_ones(contract):
    declared = {w["name"]: w["why"] for w in contract["workloads"]}
    assert declared == {name: spec.why for name, spec in WORKLOADS.items()}
    for spec in WORKLOADS.values():
        # ten samples beyond the p95 of every round
        assert spec.round_requests >= 200
        assert spec.min_rounds * 3 >= 6


def _online(accuracy=0.9, **overrides) -> dict:
    rounds = [{"latency_p50_ms": 1.0 + i, "latency_p95_ms": 2.0 + i,
               "throughput_rps": 100.0 - i, "samples": 200} for i in range(2)]
    result = {"setup_s": 1.0, "memory_mb": 50.0, "rounds": rounds,
              "accuracy": accuracy, "attempted": 800, "errors": 0, "late": 8,
              "first_error": None, "checks": {"rounds_served_all": True}}
    result.update(overrides)
    return result


OFFLINE = {"offline_s": 3.0, "artifact_bytes": 10, "offline_memory_mb": 9.0}


def test_summary_emits_exactly_the_declared_end_to_end_metrics(contract):
    spec = WORKLOADS["serve_original"]
    summary = bench.summarize(spec, contract, OFFLINE, [_online()] * 3)
    printed = bench.with_units(summary["metrics"], contract["end_to_end"],
                               spec.name)
    assert list(printed) == [m["name"] for m in contract["end_to_end"]]
    assert all(summary["checks"].values())
    assert summary["rounds"] == 6 and summary["attempted"] == 2400
    # pooled rounds are 1, 1, 1, 2, 2, 2 (times) and 100 x3, 99 x3 (rates)
    assert summary["metrics"]["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["metrics"]["throughput_rps"] == pytest.approx(100.0)
    assert summary["metrics"]["ok_share"] == pytest.approx(1 - 24 / 2400)


def test_summary_fails_its_checks_on_errors_and_missing_accuracy(
        contract):
    spec = WORKLOADS["serve_original"]
    onlines = [_online(accuracy=None), _online(),
               _online(errors=1, checks={"rounds_served_all": False})]
    checks = bench.summarize(spec, contract, OFFLINE, onlines)["checks"]
    assert not checks["accuracy_measured"]
    assert not checks["no_failed_operations"]
    assert not checks["rounds_served_all"]


def test_with_units_rejects_undeclared_and_missing_metrics(contract):
    declared = contract["per_layer"]
    values = {metric["name"]: 1.0 for metric in declared}
    assert set(bench.with_units(values, declared, "w")) == set(values)
    with pytest.raises(bench.BenchError):
        bench.with_units({**values, "made.up_ms": 1.0}, declared, "w")
    values.pop("nn.forward_ms")
    with pytest.raises(bench.BenchError):
        bench.with_units(values, declared, "w")


def test_layer_names_in_the_child_are_the_declared_ones(contract):
    source = (PERF / "harness" / "child.py").read_text(encoding="utf-8")
    # metric names end in what they count; span names never do
    emitted = set(re.findall(
        r'"([a-z]+\.[a-z0-9_]+_(?:ms|s|us|nnz|share|bytes|mean|speedup))"',
        source))
    assert emitted == {metric["name"] for metric in contract["per_layer"]}


def test_committed_reports_use_declared_names(contract):
    declared = {metric["name"] for metric in contract["end_to_end"]}
    workloads = {w["name"] for w in contract["workloads"]}
    report = json.loads((PERF / "AA_REPORT.json").read_text(encoding="utf-8"))
    assert {row["metric"] for row in report["rows"]} == declared
    assert {row["workload"] for row in report["rows"]} == workloads
    for line in (PERF / "history.jsonl").read_text(
            encoding="utf-8").splitlines():
        entry = json.loads(line)
        assert set(entry["workloads"]) <= workloads
        for values in entry["workloads"].values():
            assert set(values) == declared
