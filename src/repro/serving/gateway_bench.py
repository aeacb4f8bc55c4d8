"""The network-gateway benchmark behind ``repro bench-gateway``.

Measures what the gateway tier adds — and what it must not cost — on a
simulated dataset, writing the machine-readable ``BENCH_gateway.json``:

- **socket throughput** — pipelined requests/s through the framed TCP
  protocol (binary float64 payloads) versus the in-process fleet on the
  same replica count and request stream; the gate demands the network
  tier keeps at least ``min_socket_ratio`` (default 0.7x) of the
  in-process rate;
- **shed accounting** — a burst against a deliberately tiny in-flight
  cap with the watermark policy: every offered request must come back as
  exactly one ``ok`` or one retriable ``shed`` (``served + shed ==
  offered``), with retry-after hints on the sheds;
- **autoscale reaction** — a :class:`~repro.serving.workload.RampWorkload`
  arrival schedule against a 1-replica fleet with the ``queue-depth``
  scale policy: the replica count must grow *before* the ramp peaks,
  shrink back after the traffic drains, and no admitted request may be
  lost across the whole scale-up/scale-down cycle;
- **parity** — logits served over the socket (both JSON and binary
  encodings) are bitwise equal to direct ``ServingFleet.submit``
  for the same requests, over the graph/node/frozen paths;
- **telemetry overhead** — the same pipelined stream with per-request
  tracing + stage histograms on versus fully off: the gate demands the
  instrumented gateway keeps at least ``min_telemetry_ratio`` (default
  0.97x) of the uninstrumented rate, with bitwise-equal logits on both
  sides and a slowest-trace stage breakdown covering every canonical
  gateway stage.

Like the fleet benchmark, throughput ratios are measured in one process
run on one host, same artifact, same requests — the comparison is
transport overhead, nothing else.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.errors import ServingError
from repro.serving.embeddings import tasked_requests
from repro.serving.fleet import ServingFleet
from repro.serving.fleet_bench import _measure_throughput, usable_cores
from repro.serving.gateway import (QueueDepthScale, ServingGateway,
                                   WatermarkShed)
from repro.serving.protocol import GatewayClient
from repro.serving.workload import RampWorkload, split_requests
from repro.telemetry import GATEWAY_STAGES
from repro.utils.reports import write_benchmark_json

__all__ = ["GATEWAY_BENCH_SCHEMA_VERSION", "run_gateway_benchmark",
           "check_gateway_benchmark_schema", "gate_gateway_benchmark",
           "write_benchmark_json"]

GATEWAY_BENCH_SCHEMA_VERSION = 2


def _open_gateway(path: Path, replicas: int, *, router: str,
                  batch_mode: str, telemetry: bool = True,
                  **gateway_options) -> ServingGateway:
    fleet = ServingFleet(path, replicas, router=router,
                         batch_mode=batch_mode, telemetry=telemetry)
    try:
        gateway = ServingGateway(fleet, owns_fleet=True,
                                 telemetry=telemetry, **gateway_options)
        gateway.start()
    except Exception:
        fleet.close(drain=False)
        raise
    return gateway


def _measure_socket_throughput(path: Path, replicas: int, requests, *,
                               router: str, batch_mode: str) -> dict:
    """Pipelined req/s over the framed socket (binary payloads)."""
    gateway = _open_gateway(path, replicas, router=router,
                            batch_mode=batch_mode,
                            max_inflight=4 * len(requests) + 16)
    try:
        with GatewayClient(*gateway.address, encoding="binary") as client:
            for request in requests[:2 * replicas]:  # warm off the clock
                client.serve_batch(request)
            gateway.fleet.reset_latencies()
            started = time.perf_counter()
            count = len([client.submit(request)
                         for request in requests])
            replies = client.drain(count)
            wall = time.perf_counter() - started
            served = sum(reply.ok for reply in replies.values())
            stats = gateway.stats()
    finally:
        gateway.close()
    return {
        "replicas": replicas,
        "requests": len(requests),
        "served": served,
        "wall_s": wall,
        "requests_per_s": served / wall if wall > 0 else 0.0,
        "latency_p50_ms": stats["fleet"]["latency_p50_ms"],
        "latency_p95_ms": stats["fleet"]["latency_p95_ms"],
        "latency_p99_ms": stats["fleet"]["latency_p99_ms"],
    }


def _measure_shedding(path: Path, requests, *, router: str,
                      batch_mode: str, max_inflight: int = 8,
                      rounds: int = 3) -> dict:
    """Burst past a tiny in-flight cap; audit the shed accounting."""
    gateway = _open_gateway(
        path, 1, router=router, batch_mode=batch_mode,
        shed_policy=WatermarkShed(high=0.5, low=0.25, retry_after_ms=25.0),
        max_inflight=max_inflight)
    try:
        ok = shed = errors = 0
        hints = 0
        with GatewayClient(*gateway.address, encoding="binary") as client:
            for _ in range(rounds):
                count = len([client.submit(r)
                             for r in requests])
                for reply in client.drain(count).values():
                    if reply.status == "ok":
                        ok += 1
                    elif reply.status == "shed":
                        shed += 1
                        hints += reply.retry_after_ms is not None
                    else:
                        errors += 1
        stats = gateway.stats()
    finally:
        gateway.close()
    return {
        "offered": stats["offered"],
        "served": stats["served"],
        "shed": stats["shed"],
        "errors": stats["errors"],
        "max_inflight": max_inflight,
        "replies_ok": ok,
        "replies_shed": shed,
        "replies_error": errors,
        "shed_with_retry_hint": hints,
        "accounting_exact": (
            stats["offered"] == stats["served"] + stats["shed"]
            + stats["errors"] and stats["inflight"] == 0
            and ok == stats["served"] and shed == stats["shed"]),
    }


def _measure_autoscale(path: Path, requests, *, router: str,
                       batch_mode: str, seed: int,
                       start_rate: float = 100.0, end_rate: float = 1200.0,
                       duration_s: float = 1.5,
                       max_replicas: int = 2) -> dict:
    """Ramp arrivals against 1 replica; watch the autoscaler react."""
    workload = RampWorkload(start_rate=start_rate, end_rate=end_rate,
                            duration_s=duration_s)
    arrivals = workload.arrivals(len(requests), rng=seed)
    gateway = _open_gateway(
        path, 1, router=router, batch_mode=batch_mode,
        max_inflight=4 * len(requests) + 16,
        scale_policy=QueueDepthScale(min_replicas=1,
                                     max_replicas=max_replicas,
                                     up_backlog=2.0, down_backlog=0.5),
        autoscale_interval=0.05, scale_cooldown=0.3)
    try:
        with GatewayClient(*gateway.address, encoding="binary") as client:
            client.serve_batch(requests[0])  # warm the single replica
            ramp_started = time.monotonic()
            offset = ramp_started - gateway.started_at
            for arrival, request in zip(arrivals, requests):
                wait = arrival - (time.monotonic() - ramp_started)
                if wait > 0:
                    time.sleep(wait)
                client.submit(request)
            replies = client.drain(len(requests))
            ok = sum(reply.ok for reply in replies.values())
            shed = sum(reply.status == "shed" for reply in replies.values())
            peak = max((event["to"] for event in gateway.scale_events),
                       default=1)
            # traffic is gone: the policy must walk the fleet back down
            deadline = time.monotonic() + 30.0
            while (gateway.fleet.num_replicas > 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            scaled_down = gateway.fleet.num_replicas == 1
            probe_ok = client.serve_batch(requests[0]).ok
        events = [{**event, "t_s": event["t_s"] - offset}
                  for event in gateway.scale_events]
    finally:
        gateway.close()
    up_times = [event["t_s"] for event in events if event["action"] == "up"]
    return {
        "requests": len(requests),
        "served": ok,
        "shed": shed,
        "lost": len(requests) - ok - shed,
        "ramp": {"start_rate": start_rate, "end_rate": end_rate,
                 "duration_s": duration_s,
                 "peak_s": float(arrivals[-1])},
        "scaled_up": bool(up_times),
        "scale_up_reaction_s": min(up_times) if up_times else None,
        "peak_replicas": peak,
        "max_replicas": max_replicas,
        "scaled_down": scaled_down,
        "post_scale_down_probe_ok": bool(probe_ok),
        "events": events,
    }


def _measure_telemetry_overhead(path: Path, replicas: int, requests, *,
                                router: str, batch_mode: str,
                                repeats: int = 2) -> dict:
    """Pipelined rate with telemetry on vs fully off (best of ``repeats``).

    Both sides replay the identical stream through fresh gateways on the
    same artifact; a probe request's logits are kept from each side for
    the bitwise-parity check (telemetry must be pure observation), and
    the instrumented side's slowest retained trace must break down into
    every canonical gateway stage.
    """
    rates: dict[bool, float] = {}
    probes: dict[bool, np.ndarray | None] = {}
    slow_stages: list[str] = []
    for telemetry in (True, False):
        best = 0.0
        gateway = _open_gateway(path, replicas, router=router,
                                batch_mode=batch_mode, telemetry=telemetry,
                                max_inflight=4 * len(requests) + 16)
        try:
            with GatewayClient(*gateway.address,
                               encoding="binary") as client:
                for request in requests[:2 * replicas]:  # warm off the clock
                    client.serve_batch(request)
                probe = client.serve_batch(requests[0])
                probes[telemetry] = probe.logits if probe.ok else None
                for _ in range(repeats):
                    gateway.fleet.reset_latencies()
                    started = time.perf_counter()
                    count = len([client.submit(r)
                                 for r in requests])
                    replies = client.drain(count)
                    wall = time.perf_counter() - started
                    served = sum(reply.ok for reply in replies.values())
                    best = max(best, served / wall if wall > 0 else 0.0)
                if telemetry:
                    slowest = gateway.slowest(1)
                    slow_stages = (sorted(slowest[0].stages())
                                   if slowest else [])
        finally:
            gateway.close()
        rates[telemetry] = best
    ratio = (rates[True] / rates[False] if rates[False] > 0 else 0.0)
    parity = (probes[True] is not None and probes[False] is not None
              and np.array_equal(probes[True], probes[False]))
    return {
        "replicas": replicas,
        "requests": len(requests),
        "repeats": repeats,
        "instrumented_rps": rates[True],
        "uninstrumented_rps": rates[False],
        "overhead_ratio": ratio,
        "parity_bitwise_equal": bool(parity),
        "slowest_trace_stages": slow_stages,
        "slowest_has_all_stages": set(GATEWAY_STAGES) <= set(slow_stages),
    }


def _check_parity(path: Path, requests, *, router: str,
                  batch_mode: str) -> dict:
    """Socket replies vs direct fleet futures, bitwise, per path."""
    gateway = _open_gateway(path, 1, router=router, batch_mode=batch_mode,
                            max_inflight=64)
    fleet = gateway.fleet
    paths: dict[str, bool | None] = {}
    try:
        clients = {encoding: GatewayClient(*gateway.address,
                                           encoding=encoding)
                   for encoding in ("json", "binary")}
        try:
            for mode in ("graph", "node"):
                equal = True
                for encoding, client in clients.items():
                    for request in requests:
                        request = replace(request, mode=mode)
                        direct = fleet.submit(request).result(timeout=120.0)
                        reply = client.serve_batch(request)
                        equal &= (reply.ok
                                  and np.array_equal(direct, reply.logits))
                paths[mode] = equal
            frozen = replace(requests[0], frozen=True)
            try:
                direct = fleet.submit(frozen).result(timeout=120.0)
            except ServingError:
                paths["frozen"] = None  # deployment has no frozen path
            else:
                reply = clients["binary"].serve_batch(frozen)
                paths["frozen"] = (reply.ok
                                   and np.array_equal(direct, reply.logits))
        finally:
            for client in clients.values():
                client.close()
    finally:
        gateway.close()
    checked = [value for value in paths.values() if value is not None]
    return {"paths": paths,
            "gateway_bitwise_equal": bool(checked) and all(checked)}


def run_gateway_benchmark(dataset: str = "pubmed-sim", *,
                          method: str = "mcond", budget: int | None = None,
                          seed: int = 0, scale: float = 1.0,
                          profile: str | None = "quick",
                          deployment: str = "original",
                          replicas: int = 2, num_requests: int = 48,
                          nodes_per_request: int = 8,
                          ramp_requests: int = 200,
                          router: str = "round-robin",
                          batch_mode: str = "node",
                          artifact_path: str | Path | None = None) -> dict:
    """Run the gateway benchmark end to end; returns the JSON-ready dict."""
    from repro import api  # local import: serving stays facade-independent
    from repro.experiments import dataset_budgets

    if budget is None:
        budget = dataset_budgets(dataset)[-1]
    if replicas < 1:
        raise ServingError(f"replicas must be positive, got {replicas}")
    bundle = api.deploy(dataset, method, budget, seed=seed, scale=scale,
                        profile=profile, deployment=deployment)
    temp_dir = None
    if artifact_path is None:
        import tempfile
        temp_dir = tempfile.mkdtemp(prefix="repro-gateway-")
        artifact_path = Path(temp_dir) / "gateway.npz"
    try:
        path = bundle.save(artifact_path, layout="mmap")
        batch = api.evaluation_batch(bundle)
        requests = tasked_requests(
            split_requests(batch, num_requests, nodes_per_request), "predict")
        ramp = tasked_requests(
            split_requests(batch, ramp_requests, nodes_per_request),
            "predict")

        in_process = _measure_throughput(path, replicas, requests,
                                         router=router,
                                         batch_mode=batch_mode)
        socket = _measure_socket_throughput(path, replicas, requests,
                                            router=router,
                                            batch_mode=batch_mode)
        ratio = (socket["requests_per_s"] / in_process["requests_per_s"]
                 if in_process["requests_per_s"] > 0 else 0.0)
        return {
            "schema_version": GATEWAY_BENCH_SCHEMA_VERSION,
            "kind": "gateway-benchmark",
            "dataset": dataset,
            "method": method,
            "budget": budget,
            "seed": seed,
            "scale": scale,
            "deployment": deployment,
            "batch_mode": batch_mode,
            "router": router,
            "replicas": replicas,
            "num_requests": num_requests,
            "nodes_per_request": nodes_per_request,
            "usable_cores": usable_cores(),
            "artifact": {"layout": "mmap",
                         "bytes": int(path.stat().st_size)},
            "throughput": {"in_process": in_process, "socket": socket,
                           "socket_ratio": ratio},
            "shedding": _measure_shedding(path, requests, router=router,
                                          batch_mode=batch_mode),
            "autoscale": _measure_autoscale(path, ramp, router=router,
                                            batch_mode=batch_mode,
                                            seed=seed),
            "parity": _check_parity(path, requests[:3], router=router,
                                    batch_mode=batch_mode),
            "telemetry": _measure_telemetry_overhead(
                path, replicas, requests, router=router,
                batch_mode=batch_mode),
        }
    finally:
        if temp_dir is not None:
            import shutil
            shutil.rmtree(temp_dir, ignore_errors=True)


def check_gateway_benchmark_schema(result: dict) -> None:
    """Validate the benchmark dict's shape; raises ServingError on drift."""
    top = ("schema_version", "kind", "dataset", "method", "budget", "seed",
           "scale", "deployment", "batch_mode", "router", "replicas",
           "num_requests", "nodes_per_request", "usable_cores", "artifact",
           "throughput", "shedding", "autoscale", "parity", "telemetry")
    missing = [key for key in top if key not in result]
    if missing:
        raise ServingError(f"gateway benchmark misses keys: {missing}")
    if result["kind"] != "gateway-benchmark":
        raise ServingError(f"unexpected benchmark kind {result['kind']!r}")
    throughput = result["throughput"]
    for side in ("in_process", "socket"):
        if side not in throughput:
            raise ServingError(f"throughput misses {side!r}")
        for key in ("replicas", "requests", "served", "wall_s",
                    "requests_per_s", "latency_p50_ms", "latency_p95_ms"):
            if key not in throughput[side]:
                raise ServingError(f"throughput[{side}] misses {key!r}")
    if "socket_ratio" not in throughput:
        raise ServingError("throughput misses 'socket_ratio'")
    for key in ("latency_p99_ms",):
        if key not in throughput["socket"]:
            raise ServingError(f"throughput[socket] misses {key!r}")
    for key in ("offered", "served", "shed", "errors", "max_inflight",
                "replies_ok", "replies_shed", "replies_error",
                "shed_with_retry_hint", "accounting_exact"):
        if key not in result["shedding"]:
            raise ServingError(f"shedding misses {key!r}")
    for key in ("requests", "served", "shed", "lost", "ramp", "scaled_up",
                "scale_up_reaction_s", "peak_replicas", "max_replicas",
                "scaled_down", "post_scale_down_probe_ok", "events"):
        if key not in result["autoscale"]:
            raise ServingError(f"autoscale misses {key!r}")
    if "peak_s" not in result["autoscale"]["ramp"]:
        raise ServingError("autoscale ramp misses 'peak_s'")
    for key in ("paths", "gateway_bitwise_equal"):
        if key not in result["parity"]:
            raise ServingError(f"parity misses {key!r}")
    for key in ("instrumented_rps", "uninstrumented_rps", "overhead_ratio",
                "parity_bitwise_equal", "slowest_trace_stages",
                "slowest_has_all_stages"):
        if key not in result["telemetry"]:
            raise ServingError(f"telemetry misses {key!r}")


def gate_gateway_benchmark(result: dict, *,
                           min_socket_ratio: float = 0.7,
                           min_telemetry_ratio: float = 0.97) -> list[str]:
    """Perf-gate checks; returns failure messages (empty = gate passed)."""
    failures = []
    throughput = result["throughput"]
    if throughput["socket_ratio"] < min_socket_ratio:
        failures.append(
            f"socket throughput ({throughput['socket']['requests_per_s']:.0f}"
            f" req/s) is below {min_socket_ratio:.0%} of in-process "
            f"({throughput['in_process']['requests_per_s']:.0f} req/s)")
    shedding = result["shedding"]
    if shedding["shed"] <= 0:
        failures.append("the shed phase never shed a request "
                        "(the watermark policy did not engage)")
    if not shedding["accounting_exact"]:
        failures.append(
            f"shed accounting is not exact: offered={shedding['offered']} "
            f"!= served={shedding['served']} + shed={shedding['shed']} "
            f"+ errors={shedding['errors']}")
    if shedding["shed_with_retry_hint"] != shedding["replies_shed"]:
        failures.append("some shed replies carried no retry-after hint")
    autoscale = result["autoscale"]
    if autoscale["lost"] > 0:
        failures.append(
            f"autoscale cycle lost {autoscale['lost']} requests "
            "(every admitted request must be answered)")
    if not autoscale["scaled_up"]:
        failures.append("the autoscaler never scaled up under the ramp")
    elif autoscale["scale_up_reaction_s"] >= autoscale["ramp"]["peak_s"]:
        failures.append(
            f"autoscaler reacted at t={autoscale['scale_up_reaction_s']:.2f}s"
            f", after the ramp peak at t={autoscale['ramp']['peak_s']:.2f}s")
    if not autoscale["scaled_down"]:
        failures.append("the fleet never scaled back down after the ramp")
    if not autoscale["post_scale_down_probe_ok"]:
        failures.append("the post-scale-down probe request failed")
    if not result["parity"]["gateway_bitwise_equal"]:
        failures.append("gateway responses are not bitwise equal to direct "
                        "fleet serving")
    telemetry = result["telemetry"]
    if telemetry["overhead_ratio"] < min_telemetry_ratio:
        failures.append(
            f"instrumented gateway ({telemetry['instrumented_rps']:.0f} "
            f"req/s) is below {min_telemetry_ratio:.0%} of the "
            f"uninstrumented rate "
            f"({telemetry['uninstrumented_rps']:.0f} req/s)")
    if not telemetry["parity_bitwise_equal"]:
        failures.append("telemetry changed the served logits "
                        "(instrumented vs uninstrumented probes differ)")
    if not telemetry["slowest_has_all_stages"]:
        failures.append(
            f"the slowest trace covers stages "
            f"{telemetry['slowest_trace_stages']} — missing some of "
            f"{sorted(GATEWAY_STAGES)}")
    return failures
