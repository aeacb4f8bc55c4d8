"""The multi-replica fleet benchmark behind ``repro bench-fleet``.

Measures the three properties the fleet exists for, on a simulated
dataset, and writes the machine-readable ``BENCH_fleet.json`` — the
repo's fleet-performance trajectory across commits:

- **cold start** — wall-clock to load + prepare a deployment from the
  artifact, memory-mapped (zero-copy) vs eager (decompress-and-copy);
- **throughput scaling** — closed-loop requests/s at replica counts
  {1, 2, 4} (configurable), same request stream for every count;
- **failover tail** — p95 latency and lost-request count when a replica
  is killed mid-stream (the answer must be zero lost).

The ``--gate`` checks are strict everywhere they can be: bitwise mmap
parity, zero requests lost under failover, and mmap beating eager on
cold start.  The *scaling* check is parallelism-aware: on a host with
two or more usable cores, two replicas must beat one on throughput; on
a single-core host process replication cannot speed up CPU-bound
serving (there is nothing to overlap), so the check degrades to
"replication keeps throughput within ``single_core_tolerance`` of one
replica" — the host's ``usable_cores`` is recorded in the result so the
mode is always auditable.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.errors import ServingError
from repro.serving.embeddings import tasked_requests
from repro.serving.fleet import ServingFleet, replay_fleet
from repro.serving.workload import split_requests
from repro.utils.reports import write_benchmark_json

__all__ = ["FLEET_BENCH_SCHEMA_VERSION", "run_fleet_benchmark",
           "check_fleet_benchmark_schema", "gate_fleet_benchmark",
           "write_benchmark_json", "usable_cores"]

FLEET_BENCH_SCHEMA_VERSION = 1


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity (macOS)
        return os.cpu_count() or 1


def _measure_cold_start(path: Path, repeats: int) -> dict:
    """Best-of-``repeats`` load+prepare wall-clock, mmap vs eager."""
    from repro.api import DeploymentBundle

    results = {}
    for label, mmap_flag in (("eager", False), ("mmap", True)):
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            bundle = DeploymentBundle.load(path, mmap=mmap_flag)
            bundle.prepare()
            best = min(best, time.perf_counter() - started)
        results[f"{label}_ms"] = best * 1e3
    results["speedup"] = results["eager_ms"] / results["mmap_ms"]
    results["repeats"] = repeats
    return results


def _check_parity(path: Path, requests, batch_mode: str) -> bool:
    """Bitwise serve parity: mmap-loaded vs eager-loaded deployment."""
    from repro.api import DeploymentBundle

    eager = DeploymentBundle.load(path).prepare()
    mapped = DeploymentBundle.load(path, mmap=True).prepare()
    for request in requests:
        left, _, _ = eager.serve_task(request, batch_mode=batch_mode)
        right, _, _ = mapped.serve_task(request, batch_mode=batch_mode)
        if not np.array_equal(left, right):
            return False
    return True


def _measure_throughput(path: Path, replicas: int, requests, *,
                        router: str, batch_mode: str) -> dict:
    with ServingFleet(path, replicas, router=router,
                      batch_mode=batch_mode) as fleet:
        # warm every replica's request-invariant caches off the clock —
        # and out of the latency window, so the percentiles below are
        # steady-state serving, not first-touch cache population
        replay_fleet(fleet, requests[:2 * replicas])
        fleet.reset_latencies()
        started = time.perf_counter()
        results = replay_fleet(fleet, requests)
        wall = time.perf_counter() - started
        stats = fleet.stats()
    served = sum(result is not None for result in results)
    return {
        "replicas": replicas,
        "requests": len(requests),
        "served": served,
        "wall_s": wall,
        "requests_per_s": served / wall if wall > 0 else 0.0,
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_p95_ms": stats["latency_p95_ms"],
    }


def _measure_failover(path: Path, requests, *, router: str,
                      batch_mode: str) -> dict:
    """Kill one of two replicas mid-stream; count what the fleet loses."""
    half = len(requests) // 2
    with ServingFleet(path, 2, router=router, batch_mode=batch_mode) as fleet:
        replay_fleet(fleet, requests[:4])  # warm off the clock
        fleet.reset_latencies()
        futures = [fleet.submit(r) for r in requests[:half]]
        fleet.kill_replica(0)
        futures += [fleet.submit(r) for r in requests[half:]]
        lost = 0
        for future in futures:
            try:
                future.result(timeout=120.0)
            except ServingError:
                lost += 1
        stats = fleet.stats()
    return {
        "replicas": 2,
        "killed_after": half,
        "requests": len(requests),
        "requests_lost": lost,
        "rerouted": stats["rerouted"],
        "respawns": stats["respawns"],
        "latency_p95_ms": stats["latency_p95_ms"],
    }


def run_fleet_benchmark(dataset: str = "pubmed-sim", *,
                        method: str = "mcond", budget: int | None = None,
                        seed: int = 0, scale: float = 1.0,
                        profile: str | None = "quick",
                        deployment: str = "original",
                        replica_counts: tuple[int, ...] = (1, 2, 4),
                        num_requests: int = 48, nodes_per_request: int = 8,
                        router: str = "round-robin",
                        batch_mode: str = "node",
                        cold_start_repeats: int = 5,
                        artifact_path: str | Path | None = None) -> dict:
    """Run the fleet benchmark end to end; returns the JSON-ready dict.

    ``deployment="original"`` (default) keeps the base graph in the
    artifact — the multi-megabyte shape where zero-copy sharing across
    replicas actually matters; pass ``"synthetic"`` to benchmark the
    condensed deployment instead.
    """
    from repro import api  # local import: serving stays facade-independent
    from repro.experiments import dataset_budgets

    if budget is None:
        budget = dataset_budgets(dataset)[-1]
    if 1 not in replica_counts or len(replica_counts) < 2:
        raise ServingError(
            "replica_counts needs 1 plus at least one scaled count, "
            f"got {replica_counts}")
    bundle = api.deploy(dataset, method, budget, seed=seed, scale=scale,
                        profile=profile, deployment=deployment)
    temp_dir = None
    if artifact_path is None:
        import tempfile
        temp_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        artifact_path = Path(temp_dir) / "fleet.npz"
    try:
        path = bundle.save(artifact_path, layout="mmap")
        requests = tasked_requests(
            split_requests(api.evaluation_batch(bundle), num_requests,
                           nodes_per_request), "predict")

        throughput = {str(k): _measure_throughput(path, k, requests,
                                                  router=router,
                                                  batch_mode=batch_mode)
                      for k in replica_counts}
        base_rps = throughput["1"]["requests_per_s"]
        scaling = {f"speedup_{k}x":
                   throughput[str(k)]["requests_per_s"] / base_rps
                   for k in replica_counts if k != 1}
        cores = usable_cores()
        scaling["mode"] = "parallel" if cores >= 2 else "single-core"

        return {
            "schema_version": FLEET_BENCH_SCHEMA_VERSION,
            "kind": "fleet-benchmark",
            "dataset": dataset,
            "method": method,
            "budget": budget,
            "seed": seed,
            "scale": scale,
            "deployment": deployment,
            "batch_mode": batch_mode,
            "router": router,
            "num_requests": num_requests,
            "nodes_per_request": nodes_per_request,
            "usable_cores": cores,
            "artifact": {"layout": "mmap", "bytes": int(path.stat().st_size)},
            "cold_start": _measure_cold_start(path, cold_start_repeats),
            "throughput": throughput,
            "scaling": scaling,
            "failover": _measure_failover(path, requests, router=router,
                                          batch_mode=batch_mode),
            "parity": {"mmap_bitwise_equal":
                       _check_parity(path, requests[:4], batch_mode)},
        }
    finally:
        if temp_dir is not None:
            import shutil
            shutil.rmtree(temp_dir, ignore_errors=True)


def check_fleet_benchmark_schema(result: dict) -> None:
    """Validate the benchmark dict's shape; raises ServingError on drift."""
    top = ("schema_version", "kind", "dataset", "method", "budget", "seed",
           "scale", "deployment", "batch_mode", "router", "num_requests",
           "nodes_per_request", "usable_cores", "artifact", "cold_start",
           "throughput", "scaling", "failover", "parity")
    missing = [key for key in top if key not in result]
    if missing:
        raise ServingError(f"fleet benchmark misses keys: {missing}")
    if result["kind"] != "fleet-benchmark":
        raise ServingError(f"unexpected benchmark kind {result['kind']!r}")
    for key in ("eager_ms", "mmap_ms", "speedup", "repeats"):
        if key not in result["cold_start"]:
            raise ServingError(f"cold_start misses {key!r}")
    if "1" not in result["throughput"] or len(result["throughput"]) < 2:
        raise ServingError(
            "throughput needs replicas=1 plus at least one scaled count")
    for name, entry in result["throughput"].items():
        for key in ("replicas", "requests", "served", "wall_s",
                    "requests_per_s", "latency_p50_ms", "latency_p95_ms"):
            if key not in entry:
                raise ServingError(f"throughput[{name}] misses {key!r}")
    if "mode" not in result["scaling"]:
        raise ServingError("scaling misses 'mode'")
    for key in ("replicas", "killed_after", "requests", "requests_lost",
                "rerouted", "respawns", "latency_p95_ms"):
        if key not in result["failover"]:
            raise ServingError(f"failover misses {key!r}")
    if "mmap_bitwise_equal" not in result["parity"]:
        raise ServingError("parity misses 'mmap_bitwise_equal'")


def gate_fleet_benchmark(result: dict, *,
                         min_cold_start_speedup: float = 1.0,
                         single_core_tolerance: float = 0.85) -> list[str]:
    """Perf-gate checks; returns failure messages (empty = gate passed)."""
    failures = []
    if not result["parity"]["mmap_bitwise_equal"]:
        failures.append(
            "mmap-loaded deployment is not bitwise equal to eager loading")
    cold = result["cold_start"]
    if cold["speedup"] <= min_cold_start_speedup:
        failures.append(
            f"mmap cold start ({cold['mmap_ms']:.2f} ms) does not beat "
            f"eager loading ({cold['eager_ms']:.2f} ms)")
    failover = result["failover"]
    if failover["requests_lost"] > 0:
        failures.append(
            f"failover lost {failover['requests_lost']} requests "
            "(every in-flight request must be re-routed)")
    rps_1 = result["throughput"]["1"]["requests_per_s"]
    rps_2 = result["throughput"].get("2", {}).get("requests_per_s")
    if rps_2 is None:
        failures.append("throughput has no replicas=2 measurement to gate")
    elif result["usable_cores"] >= 2:
        if rps_2 <= rps_1:
            failures.append(
                f"2 replicas ({rps_2:.0f} req/s) do not beat 1 replica "
                f"({rps_1:.0f} req/s) on a {result['usable_cores']}-core host")
    elif rps_2 < single_core_tolerance * rps_1:
        failures.append(
            f"single-core host: replication overhead pushed 2-replica "
            f"throughput ({rps_2:.0f} req/s) below {single_core_tolerance:.0%} "
            f"of 1 replica ({rps_1:.0f} req/s)")
    return failures
