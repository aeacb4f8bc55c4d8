"""The standardized serving-latency benchmark behind ``repro bench``.

Measures, on a simulated dataset, the three serving paths over identical
micro-batches:

- ``uncached``  — the naive engine path (re-normalizes the full augmented
  adjacency every batch);
- ``cached``    — the :class:`~repro.serving.prepared.PreparedDeployment`
  path (bitwise-identical logits, request-invariant work hoisted out);
- ``frozen``    — the cached-propagation approximation (SGC only).

plus a closed-loop :class:`~repro.serving.runtime.ServingRuntime` replay
for end-to-end throughput/latency accounting.  The result is a
machine-readable dict (schema below, asserted by the test suite) written
to ``BENCH_serving.json`` — the repo's serving-performance trajectory is
the history of this file across commits.

Per-batch latency is the **best of ``repeats`` runs** (discarding OS
scheduler noise), and the reported mean averages those minima across
batches; percentiles come from the shared quantile helper.

Since schema version 2 the result also carries a **precision axis**
(``result["precision"]``): the frozen path of an original-graph
deployment re-measured under every numeric serving mode (float64 /
float32 / int8 — see ``docs/precision.md``), reporting latency,
throughput, artifact bytes, and eval-batch accuracy per mode, plus a
fused-vs-unfused float64 bitwise check.  :func:`gate_serving_benchmark`
turns that section into the CI perf gate.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.errors import ServingError
from repro.inference.benchmark import TimingStats
from repro.inference.engine import InductiveServer
from repro.serving.prepared import PRECISIONS, PreparedDeployment
from repro.serving.runtime import ServingRuntime
from repro.serving.embeddings import tasked_requests
from repro.serving.workload import split_requests, replay
from repro.utils.reports import write_benchmark_json

__all__ = ["BENCH_SCHEMA_VERSION", "run_serving_benchmark",
           "write_benchmark_json", "check_benchmark_schema",
           "gate_serving_benchmark"]

BENCH_SCHEMA_VERSION = 2

_PATH_KEYS = ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "batches",
              "memory_bytes")


def _measure_path(serve, batches, batch_mode: str, repeats: int):
    """Best-of-``repeats`` latency per batch; returns (stats, logits, memory)."""
    per_batch = []
    logits = []
    memory = 0
    for batch in batches:
        best = np.inf
        batch_logits = None
        for _ in range(repeats + 1):  # one extra pass acts as warm-up
            out, seconds, mem = serve(batch, batch_mode)
            if seconds < best:
                best = seconds
            batch_logits = out
            memory = max(memory, mem)
        per_batch.append(best)
        logits.append(batch_logits)
    return TimingStats.from_samples(per_batch), np.vstack(logits), memory


def _path_dict(stats: TimingStats, memory: int) -> dict:
    return {
        "mean_ms": stats.mean_seconds * 1e3,
        "p50_ms": stats.p50_seconds * 1e3,
        "p95_ms": stats.p95_seconds * 1e3,
        "p99_ms": stats.p99_seconds * 1e3,
        "batches": stats.repeats,
        "memory_bytes": int(memory),
    }


def run_serving_benchmark(dataset: str = "pubmed-sim", *,
                          method: str = "mcond", budget: int | None = None,
                          seed: int = 0, scale: float = 1.0,
                          profile: str | None = "quick",
                          num_requests: int = 48, nodes_per_request: int = 4,
                          max_batch_size: int = 8, repeats: int = 3,
                          batch_mode: str = "node",
                          include_original: bool = False) -> dict:
    """Run the serving benchmark end to end; returns the JSON-ready dict."""
    from repro import api  # local import: serving must stay facade-independent
    from repro.experiments import dataset_budgets

    if budget is None:
        budget = dataset_budgets(dataset)[-1]
    bundle = api.deploy(dataset, method, budget, seed=seed, scale=scale,
                        profile=profile)
    test_batch = api.evaluation_batch(bundle)
    requests = split_requests(test_batch, num_requests, nodes_per_request)

    result = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "serving-benchmark",
        "dataset": dataset,
        "method": method,
        "budget": budget,
        "seed": seed,
        "scale": scale,
        "batch_mode": batch_mode,
        "num_requests": num_requests,
        "nodes_per_request": nodes_per_request,
        "max_batch_size": max_batch_size,
        "repeats": repeats,
        "deployments": {},
        "parity": {},
    }

    result["deployments"]["synthetic"] = _bench_deployment(
        bundle, requests, batch_mode, max_batch_size, repeats)
    if include_original:
        whole = api.deploy(dataset, "whole", seed=seed, scale=scale,
                           profile=profile)
        result["deployments"]["original"] = _bench_deployment(
            whole, requests, batch_mode, max_batch_size, repeats)

    # precision axis: the frozen path of an original-graph deployment
    # (the base graph is big enough there for bandwidth effects to show)
    # re-measured under every numeric serving mode
    original = api.deploy(dataset, method, budget, seed=seed, scale=scale,
                          profile=profile, deployment="original")
    result["precision"] = _bench_precision(
        original, api.evaluation_batch(original), batch_mode, repeats)

    # top-level parity aggregates over every benchmarked deployment, so a
    # parity break in any path is visible without digging into sections
    deployments = result["deployments"].values()
    result["parity"]["cached_bitwise_equal"] = all(
        d["parity"]["cached_bitwise_equal"] for d in deployments)
    frozen_diffs = [d["parity"]["frozen_max_abs_diff"] for d in deployments
                    if "frozen_max_abs_diff" in d["parity"]]
    if frozen_diffs:
        result["parity"]["frozen_max_abs_diff"] = max(frozen_diffs)
    return result


def _bench_deployment(bundle, requests, batch_mode: str, max_batch_size: int,
                      repeats: int) -> dict:
    from repro.serving.runtime import merge_requests

    prepared = PreparedDeployment.from_bundle(bundle)
    naive = InductiveServer(bundle.model(), bundle.deployment, bundle.base,
                            bundle.condensed, use_cache=False)

    # identical micro-batch groups for every path
    groups = [requests[i:i + max_batch_size]
              for i in range(0, len(requests), max_batch_size)]
    batches = [merge_requests(group) for group in groups]

    uncached_stats, uncached_logits, uncached_memory = _measure_path(
        naive.serve_batch, batches, batch_mode, repeats)
    cached_stats, cached_logits, cached_memory = _measure_path(
        prepared.serve_batch, batches, batch_mode, repeats)
    parity = {"cached_bitwise_equal": bool(
        np.array_equal(uncached_logits, cached_logits))}

    paths = {
        "uncached": _path_dict(uncached_stats, uncached_memory),
        "cached": _path_dict(cached_stats, cached_memory),
    }
    try:
        frozen_stats, frozen_logits, frozen_memory = _measure_path(
            prepared.serve_batch_frozen, batches, batch_mode, repeats)
        paths["frozen"] = _path_dict(frozen_stats, frozen_memory)
        parity["frozen_max_abs_diff"] = float(
            np.abs(frozen_logits - uncached_logits).max())
    except ServingError:
        pass  # non-linear model: no cached-propagation path

    # closed-loop runtime replay over the same requests
    runtime = ServingRuntime(prepared, "sizecap", batch_mode=batch_mode,
                             scheduler_options={"max_batch_size": max_batch_size})
    replay(runtime, tasked_requests(requests, "predict"))
    stats = runtime.stats()

    return {
        "storage_bytes": bundle.storage_bytes(),
        "paths": paths,
        "parity": parity,
        "runtime": stats.as_dict(),
        "speedup_cached_vs_uncached":
            uncached_stats.mean_seconds / cached_stats.mean_seconds,
    }


_PRECISION_MIN_NODES = 4096


def _tile_batch(batch, min_nodes: int):
    """Stack the eval batch until it is large enough to be bandwidth-bound.

    Small quick-profile eval batches are overhead-dominated, which hides
    the memory-traffic difference the precision axis exists to measure;
    tiling preserves per-node semantics (accuracy is unchanged) while
    making the kernels stream enough data for dtype width to matter.
    """
    import scipy.sparse as sp

    from repro.serving.runtime import IncrementalBatch

    nodes = int(batch.features.shape[0])
    tiles = max(1, -(-min_nodes // nodes))
    if tiles == 1:
        return batch, 1
    tiled = IncrementalBatch(
        features=np.vstack([batch.features] * tiles),
        incremental=sp.vstack([batch.incremental] * tiles).tocsr(),
        intra=sp.block_diag([batch.intra] * tiles).tocsr(),
        labels=np.concatenate([batch.labels] * tiles))
    return tiled, tiles


def _bench_precision(bundle, batch, batch_mode: str, repeats: int) -> dict:
    """Measure the frozen path under every numeric serving mode.

    Each mode is exercised exactly the way production would see it: the
    bundle is saved at that precision, re-loaded from the artifact, and
    served through :meth:`PreparedDeployment.serve_batch_frozen` on the
    full (tiled) evaluation batch — one large bandwidth-bound request.
    float64 additionally cross-checks the fused kernels against the
    unfused reference bitwise.
    """
    from repro import api  # local import: serving must stay facade-independent

    batch, tiles = _tile_batch(batch, _PRECISION_MIN_NODES)
    labels = np.asarray(batch.labels)
    nodes = int(batch.features.shape[0])
    section = {"deployment": "original", "path": "frozen",
               "eval_nodes": nodes, "tile_factor": tiles, "modes": {}}
    baseline = None
    with tempfile.TemporaryDirectory() as tmp:
        prepared = {}
        loaded = {}
        artifact_bytes = {}
        for mode in PRECISIONS:
            path = os.path.join(tmp, f"artifact_{mode}.npz")
            bundle.save(path, precision=mode)
            artifact_bytes[mode] = os.path.getsize(path)
            loaded[mode] = api.DeploymentBundle.load(path)
            prepared[mode] = loaded[mode].prepare()

        # modes are timed round-robin (not back to back) so clock/cache
        # drift during the run hits every mode equally, keeping the
        # speedup ratio honest; best-of still discards scheduler noise
        best = {mode: np.inf for mode in PRECISIONS}
        logits = {}
        memory = {mode: 0 for mode in PRECISIONS}
        for _ in range(repeats + 2):  # extra passes double as warm-up
            for mode in PRECISIONS:
                out, seconds, mem = prepared[mode].serve_batch_frozen(
                    batch, batch_mode)
                best[mode] = min(best[mode], seconds)
                memory[mode] = max(memory[mode], mem)
                logits[mode] = out

        unfused = loaded["float64"].prepare(fused=False)
        ref, _, _ = unfused.serve_batch_frozen(batch, batch_mode)
        section["fused_bitwise_equal"] = bool(
            np.array_equal(logits["float64"], ref))
        baseline = None
        for mode in PRECISIONS:
            entry = {
                "artifact_bytes": int(artifact_bytes[mode]),
                "mean_ms": best[mode] * 1e3,
                "memory_bytes": int(memory[mode]),
                "throughput_nodes_per_s": nodes / best[mode],
                "accuracy": float(
                    (logits[mode].argmax(axis=1) == labels).mean()),
            }
            if mode == "float64":
                baseline = entry
            else:
                entry["speedup_vs_float64"] = (
                    baseline["mean_ms"] / entry["mean_ms"])
                entry["accuracy_drop_pts"] = (
                    baseline["accuracy"] - entry["accuracy"]) * 100.0
                entry["artifact_bytes_ratio"] = (
                    artifact_bytes[mode] / baseline["artifact_bytes"])
            section["modes"][mode] = entry
    return section


def gate_serving_benchmark(result: dict, *,
                           min_float32_speedup: float = 1.15,
                           max_accuracy_drop: float = 0.5,
                           max_int8_bytes_ratio: float = 0.5) -> list[str]:
    """The CI perf gate over the precision axis (empty list = pass).

    Enforced invariants: the fused float64 frozen path stays bitwise
    identical to the unfused baseline, float32 beats float64 throughput
    by ``min_float32_speedup`` on the frozen path, reduced modes stay
    within ``max_accuracy_drop`` accuracy points of float64, and the
    int8 artifact shrinks to at most ``max_int8_bytes_ratio`` of the
    float64 artifact.
    """
    check_benchmark_schema(result)
    failures: list[str] = []
    if not result["parity"]["cached_bitwise_equal"]:
        failures.append("cached path lost bitwise parity with the "
                        "uncached baseline")
    precision = result["precision"]
    if not precision.get("fused_bitwise_equal"):
        failures.append("fused float64 frozen path is not bitwise "
                        "identical to the unfused baseline")
    modes = precision["modes"]
    speedup = modes["float32"]["speedup_vs_float64"]
    if speedup < min_float32_speedup:
        failures.append(
            f"float32 frozen speedup {speedup:.2f}x is below the "
            f"{min_float32_speedup:.2f}x floor")
    for mode in ("float32", "int8"):
        drop = modes[mode]["accuracy_drop_pts"]
        if drop > max_accuracy_drop:
            failures.append(
                f"{mode} accuracy drop {drop:.2f} points exceeds the "
                f"{max_accuracy_drop:.2f}-point budget")
    ratio = modes["int8"]["artifact_bytes_ratio"]
    if ratio > max_int8_bytes_ratio:
        failures.append(
            f"int8 artifact is {ratio:.2f}x the float64 artifact, above "
            f"the {max_int8_bytes_ratio:.2f}x ceiling")
    return failures


def check_benchmark_schema(result: dict) -> None:
    """Validate the benchmark dict's shape; raises ServingError on drift.

    Shared by the test suite and ``repro bench`` itself so the emitted
    artifact can never silently lose the keys downstream tooling reads.
    """
    top = ("schema_version", "kind", "dataset", "method", "budget", "seed",
           "scale", "batch_mode", "num_requests", "nodes_per_request",
           "max_batch_size", "repeats", "deployments", "parity")
    missing = [key for key in top if key not in result]
    if missing:
        raise ServingError(f"benchmark result misses keys: {missing}")
    if result["kind"] != "serving-benchmark":
        raise ServingError(f"unexpected benchmark kind {result['kind']!r}")
    if not result["deployments"]:
        raise ServingError("benchmark result has no deployments")
    if "cached_bitwise_equal" not in result["parity"]:
        raise ServingError("benchmark result misses parity.cached_bitwise_equal")
    for name, deployment in result["deployments"].items():
        for key in ("storage_bytes", "paths", "parity", "runtime",
                    "speedup_cached_vs_uncached"):
            if key not in deployment:
                raise ServingError(f"deployment {name!r} misses {key!r}")
        for path_name, path in deployment["paths"].items():
            path_missing = [key for key in _PATH_KEYS if key not in path]
            if path_missing:
                raise ServingError(
                    f"path {name}.{path_name} misses {path_missing}")
        runtime_keys = ("requests", "latency_p50_ms", "latency_p95_ms",
                        "latency_p99_ms", "queue_wait_mean_ms",
                        "compute_mean_ms", "throughput_rps")
        runtime_missing = [key for key in runtime_keys
                           if key not in deployment["runtime"]]
        if runtime_missing:
            raise ServingError(
                f"deployment {name!r} runtime misses {runtime_missing}")
    if result["schema_version"] >= 2:
        precision = result.get("precision")
        if not isinstance(precision, dict):
            raise ServingError("schema v2 benchmark misses the precision "
                               "section")
        if "fused_bitwise_equal" not in precision:
            raise ServingError(
                "precision section misses fused_bitwise_equal")
        modes = precision.get("modes", {})
        missing_modes = [m for m in ("float64", "float32", "int8")
                         if m not in modes]
        if missing_modes:
            raise ServingError(f"precision section misses modes: "
                               f"{missing_modes}")
        mode_keys = ("artifact_bytes", "mean_ms", "memory_bytes",
                     "throughput_nodes_per_s", "accuracy")
        reduced_keys = ("speedup_vs_float64", "accuracy_drop_pts",
                        "artifact_bytes_ratio")
        for mode, entry in modes.items():
            required = mode_keys if mode == "float64" else (
                mode_keys + reduced_keys)
            mode_missing = [key for key in required if key not in entry]
            if mode_missing:
                raise ServingError(
                    f"precision mode {mode!r} misses {mode_missing}")
