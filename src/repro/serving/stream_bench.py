"""The streaming-evolution benchmark behind ``repro bench-stream``.

Measures, on a simulated dataset deployed on its original graph, what the
streaming subsystem exists for:

- **delta refresh vs full rebuild** — the same delta trace applied to two
  prepared deployments, once with incremental cache refresh and once with
  ``staleness_threshold=0`` (every delta rebuilds the warm caches from
  scratch).  Both end in bit-identical state; the wall-clock ratio is the
  benchmark's headline number and the CI gate.
- **serve latency under concurrent ingest** — a closed-loop runtime
  replay with deltas interleaved between request groups, against the
  same replay without ingest; p95 latency of both is reported.
- **parity** — after the full trace, the incrementally-refreshed
  deployment is compared bit for bit against a from-scratch
  ``PreparedDeployment`` on the evolved graph (operator, propagated
  features, warm logits, served logits).

The result is a machine-readable dict written to ``BENCH_streaming.json``
— the repo's streaming-performance trajectory across commits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.stream import make_delta_trace
from repro.serving.embeddings import tasked_requests
from repro.serving.prepared import PreparedDeployment
from repro.serving.runtime import ServingRuntime
from repro.serving.workload import replay_stream, split_requests
from repro.utils.reports import require_keys, write_benchmark_json

__all__ = ["STREAM_BENCH_SCHEMA_VERSION", "run_streaming_benchmark",
           "check_streaming_benchmark_schema", "gate_streaming_benchmark",
           "write_benchmark_json"]

STREAM_BENCH_SCHEMA_VERSION = 1


def _warm(prepared: PreparedDeployment) -> None:
    """Materialize the caches the refresh strategies compete over."""
    prepared.base_operator()
    try:
        prepared.propagated_base_features()
    except ServingError:
        pass  # non-linear model: no cached-propagation hops to refresh


def _apply_trace(prepared: PreparedDeployment, trace,
                 threshold: float) -> list:
    _warm(prepared)
    return [prepared.apply_delta(delta, staleness_threshold=threshold)
            for delta in trace]


def _refresh_section(reports) -> dict:
    seconds = [r.seconds for r in reports]
    return {
        "ms_mean": float(np.mean(seconds)) * 1e3,
        "ms_total": float(np.sum(seconds)) * 1e3,
        "modes": {mode: int(sum(r.mode == mode for r in reports))
                  for mode in ("incremental", "rebuild")},
    }


def _pad_incremental(batch: IncrementalBatch, width: int) -> IncrementalBatch:
    inc = batch.incremental.tocsr()
    if inc.shape[1] == width:
        return batch
    padded = sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                           shape=(inc.shape[0], width))
    return IncrementalBatch(features=batch.features, incremental=padded,
                            intra=batch.intra, labels=batch.labels)


def _state_parity(evolved: PreparedDeployment, fresh: PreparedDeployment,
                  probe: IncrementalBatch, batch_mode: str) -> bool:
    checks = [
        np.array_equal(evolved.base_loops.data, fresh.base_loops.data),
        np.array_equal(evolved.base_loops.indices, fresh.base_loops.indices),
        np.array_equal(evolved.base_loops.indptr, fresh.base_loops.indptr),
        np.array_equal(evolved.base_features, fresh.base_features),
        np.array_equal(evolved.base_operator().data,
                       fresh.base_operator().data),
        np.array_equal(evolved.warm_base(), fresh.warm_base()),
    ]
    try:
        hops_a = evolved.propagated_base_features()
        hops_b = fresh.propagated_base_features()
        checks.append(all(np.array_equal(a, b)
                          for a, b in zip(hops_a, hops_b)))
    except ServingError:
        pass
    probe = _pad_incremental(probe, evolved.num_base)
    logits_a, _, memory_a = evolved.serve_batch(probe, batch_mode)
    logits_b, _, memory_b = fresh.serve_batch(probe, batch_mode)
    checks.append(np.array_equal(logits_a, logits_b))
    checks.append(memory_a == memory_b)
    return all(checks)


def _replay_with_ingest(bundle, requests, trace, batch_mode: str,
                        max_batch_size: int, ingest_every: int,
                        staleness_threshold: float) -> ServingRuntime:
    prepared = bundle.prepare()
    _warm(prepared)
    runtime = ServingRuntime(
        prepared, "sizecap", batch_mode=batch_mode,
        scheduler_options={"max_batch_size": max_batch_size})
    runtime.staleness_threshold = staleness_threshold
    replay_stream(runtime, requests, trace, ingest_every)
    return runtime


def run_streaming_benchmark(dataset: str = "pubmed-sim", *,
                            method: str = "mcond", budget: int | None = None,
                            seed: int = 0, scale: float = 1.0,
                            profile: str | None = "quick",
                            num_deltas: int = 10, nodes_per_delta: int = 3,
                            edges_per_delta: int = 4,
                            removals_per_delta: int = 2,
                            updates_per_delta: int = 2,
                            num_requests: int = 48,
                            nodes_per_request: int = 2,
                            max_batch_size: int = 8, ingest_every: int = 4,
                            staleness_threshold: float = 0.25,
                            batch_mode: str = "node") -> dict:
    """Run the streaming benchmark end to end; returns the JSON-ready dict."""
    from repro import api  # local import: serving stays facade-independent
    from repro.experiments import dataset_budgets

    if budget is None:
        budget = dataset_budgets(dataset)[-1]
    bundle = api.deploy(dataset, method, budget, deployment="original",
                        seed=seed, scale=scale, profile=profile)
    batch = api.evaluation_batch(bundle)
    reserved = num_deltas * nodes_per_delta
    if reserved >= batch.num_nodes:
        raise ServingError(
            f"delta trace wants {reserved} nodes but the evaluation batch "
            f"holds {batch.num_nodes}; lower num_deltas/nodes_per_delta")
    delta_pool = batch.subset(np.arange(reserved))
    request_pool = batch.subset(np.arange(reserved, batch.num_nodes))

    def trace():
        return make_delta_trace(
            bundle.base, delta_pool, num_deltas=num_deltas,
            nodes_per_delta=nodes_per_delta,
            edges_per_delta=edges_per_delta,
            removals_per_delta=removals_per_delta,
            updates_per_delta=updates_per_delta, seed=seed)

    # --- delta refresh vs full rebuild -------------------------------
    incremental = bundle.prepare()
    inc_reports = _apply_trace(incremental, trace(), staleness_threshold)
    rebuild = bundle.prepare()
    reb_reports = _apply_trace(rebuild, trace(), 0.0)

    refresh = {
        "delta_refresh": _refresh_section(inc_reports),
        "full_rebuild": _refresh_section(reb_reports),
    }
    refresh["speedup"] = (refresh["full_rebuild"]["ms_total"]
                          / max(refresh["delta_refresh"]["ms_total"], 1e-12))

    # --- parity against a from-scratch prepare -----------------------
    probe = request_pool.subset(np.arange(min(4, request_pool.num_nodes)))
    fresh = PreparedDeployment(bundle.model(), "original", incremental.base)
    parity = {
        "bit_identical": _state_parity(incremental, fresh, probe, batch_mode),
    }

    # --- serve latency under concurrent ingest -----------------------
    requests = tasked_requests(
        split_requests(request_pool, num_requests, nodes_per_request),
        "predict")
    with_ingest = _replay_with_ingest(bundle, requests, trace(), batch_mode,
                                      max_batch_size, ingest_every,
                                      staleness_threshold)
    no_ingest = _replay_with_ingest(bundle, requests, [], batch_mode,
                                    max_batch_size, ingest_every,
                                    staleness_threshold)

    return {
        "schema_version": STREAM_BENCH_SCHEMA_VERSION,
        "kind": "streaming-benchmark",
        "dataset": dataset,
        "method": method,
        "budget": budget,
        "seed": seed,
        "scale": scale,
        "batch_mode": batch_mode,
        "num_deltas": num_deltas,
        "nodes_per_delta": nodes_per_delta,
        "edges_per_delta": edges_per_delta,
        "removals_per_delta": removals_per_delta,
        "updates_per_delta": updates_per_delta,
        "num_requests": num_requests,
        "nodes_per_request": nodes_per_request,
        "max_batch_size": max_batch_size,
        "ingest_every": ingest_every,
        "staleness_threshold": staleness_threshold,
        "refresh": refresh,
        "serving": {
            "with_ingest": with_ingest.stats().as_dict(),
            "no_ingest": no_ingest.stats().as_dict(),
            "stream": with_ingest.stream_stats(),
        },
        "parity": parity,
    }


def check_streaming_benchmark_schema(result: dict) -> None:
    """Validate the benchmark dict's shape; raises ServingError on drift."""
    top = ("schema_version", "kind", "dataset", "method", "budget", "seed",
           "scale", "batch_mode", "num_deltas", "nodes_per_delta",
           "staleness_threshold", "refresh", "serving", "parity")
    require_keys(result, top, "streaming benchmark result", ServingError)
    if result["kind"] != "streaming-benchmark":
        raise ServingError(f"unexpected benchmark kind {result['kind']!r}")
    require_keys(result["refresh"], ("delta_refresh", "full_rebuild",
                                     "speedup"),
                 "refresh section", ServingError)
    for name in ("delta_refresh", "full_rebuild"):
        require_keys(result["refresh"][name], ("ms_mean", "ms_total",
                                               "modes"),
                     f"refresh.{name}", ServingError)
    require_keys(result["serving"], ("with_ingest", "no_ingest", "stream"),
                 "serving section", ServingError)
    for name in ("with_ingest", "no_ingest"):
        require_keys(result["serving"][name],
                     ("requests", "latency_p95_ms", "throughput_rps"),
                     f"serving.{name}", ServingError)
    require_keys(result["serving"]["stream"],
                 ("deltas", "incremental", "rebuilds", "refresh_mean_ms"),
                 "serving.stream", ServingError)
    require_keys(result["parity"], ("bit_identical",), "parity section",
                 ServingError)


def gate_streaming_benchmark(result: dict,
                             min_speedup: float = 1.0) -> list[str]:
    """Perf-gate checks; returns human-readable failure strings (empty =
    green).  The gate is the tentpole's contract: the incremental path
    must beat a full rebuild, and must do so without drifting a bit."""
    check_streaming_benchmark_schema(result)
    failures = []
    speedup = result["refresh"]["speedup"]
    if speedup < min_speedup:
        failures.append(
            f"delta refresh is not faster than a full rebuild "
            f"({speedup:.2f}x < {min_speedup:.2f}x)")
    if not result["parity"]["bit_identical"]:
        failures.append(
            "incremental refresh drifted from the from-scratch prepare "
            "(bitwise parity broken)")
    return failures
