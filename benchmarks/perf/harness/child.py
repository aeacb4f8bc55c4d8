"""One phase of one workload, run in a fresh single-threaded process.

``run.py`` spawns this module three ways:

- ``offline``: condense, train and package through ``repro.api``;
- ``online``: load the artifact, warm up, replay timed rounds;
- ``traced``: the per-layer run, with the span recorder on and the same
  requests sent through every serving tier in turn.

Each prints one JSON object as its last line.  Every layer is measured
from outside, by timing calls into its public functions.
"""

from __future__ import annotations

import time

# Taken before numpy, scipy or repro load: ``setup_s`` counts the imports.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from harness.spans import SpanRecorder  # noqa: E402
from harness.stats import median, tail_percentile  # noqa: E402
from harness.workloads import (  # noqa: E402
    BURST,
    MAX_ROUNDS_PER_PROCESS,
    MIN_INCREMENTAL_SHARE,
    ONLINE_PROCESSES,
    PARITY_REQUESTS,
    PINNED_ENV,
    PROFILE,
    PROGRAM_SEED,
    READS_PER_DELTA,
    STALENESS_THRESHOLD,
    WARMUP_REQUESTS,
    WORKLOADS,
    Traffic,
    Workload,
    build_traffic,
    with_width,
)

#: Every reply is already resolved when the harness reads it (the
#: runtime is driven inline); the timeout only turns a hang into an error.
RESULT_TIMEOUT = 30.0
BATCH_MODE = "node"


def require_pinned_environment() -> dict:
    """The pinned settings in force; exits if they cannot have taken.

    BLAS and malloc read them once, when numpy and libc start up, so
    they only count if they were in the environment before that.
    """
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the pins were checked")
    settings = {name: os.environ.get(name) for name in PINNED_ENV}
    if settings != PINNED_ENV:
        raise SystemExit(
            f"the environment is not pinned ({settings}, need {PINNED_ENV}); "
            "refusing to time anything. Start phases through "
            "benchmarks/perf/run.py.")
    return settings


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# offline: condense -> train -> package
# ----------------------------------------------------------------------
def run_offline(spec: Workload, artifact: str) -> dict:
    from repro import api

    common = {"seed": PROGRAM_SEED, "scale": spec.scale, "profile": PROFILE}
    started = time.perf_counter()
    condensed = None
    if spec.method != "whole":
        condensed = api.condense(spec.dataset, spec.method, spec.budget,
                                 **common, **spec.reducer_options)
    reduced = time.perf_counter()
    if condensed is None:
        bundle = api.deploy(spec.dataset, "whole", deployment="original",
                            **common)
    else:
        bundle = api.deploy(spec.dataset, condensed=condensed, **common)
    trained = time.perf_counter()
    path = bundle.save(artifact, layout="mmap")
    saved = time.perf_counter()
    layers = {
        # a workload that condenses nothing does no work in that layer
        "condense.reduce_s": (reduced - started) if condensed else 0.0,
        "condense.mapping_nnz": (int(condensed.mapping.nnz)
                                 if condensed else 0),
        "condense.synthetic_nnz": (int(condensed.sparse_adjacency().nnz)
                                   if condensed else 0),
        "nn.train_s": trained - reduced,
        "api.save_ms": (saved - trained) * 1e3,
    }
    return {
        "offline_s": saved - started,
        "artifact_bytes": os.path.getsize(path),
        "offline_memory_mb": peak_rss_mb(),
        "layers": layers,
    }


# ----------------------------------------------------------------------
# online: set-up and the two pass shapes
# ----------------------------------------------------------------------
def open_deployment(bundle):
    """``prepare()`` plus every warm cache a serving process holds."""
    prepared = bundle.prepare()
    prepared.base_operator()
    prepared.propagated_base_features()
    prepared.warm_base()
    return prepared


def open_runtime(prepared):
    from repro.serving.runtime import ServingRuntime

    runtime = ServingRuntime(
        prepared, "microbatch", batch_mode=BATCH_MODE,
        scheduler_options={"max_batch_size": BURST, "max_wait_ms": 0.0})
    runtime.staleness_threshold = STALENESS_THRESHOLD
    return runtime


def serve_one(runtime, task, recorder: SpanRecorder, request: int):
    """One request in flight, driven on the caller's own thread."""
    with recorder.span("request", request):
        with recorder.span("runtime.submit"):
            future = runtime.submit(task)
        with recorder.span("runtime.run_pending"):
            runtime.run_pending()
        with recorder.span("future.result"):
            return future.result(timeout=RESULT_TIMEOUT)


def ingest_one(runtime, delta, recorder: SpanRecorder, index: int):
    with recorder.span("delta", index):
        with recorder.span("runtime.ingest"):
            future = runtime.ingest(delta)
        with recorder.span("runtime.run_pending"):
            runtime.run_pending()
        return future.result(timeout=RESULT_TIMEOUT)


@dataclass
class Online:
    """What an online process holds once it is ready to serve."""

    spec: Workload
    bundle: object
    batch: object  # the evaluation batch the traffic is cut from
    traffic: Traffic
    prepared: object
    runtime: object
    setup_s: float = 0.0

    def first_batches(self, count: int) -> list:
        """The first ``count`` request batches, citing the un-evolved base."""
        bundle = self.bundle
        width = (bundle.condensed.mapping.shape[0]
                 if bundle.deployment == "synthetic"
                 else bundle.base.num_nodes)
        return [with_width(task.batch, width)
                for task in self.traffic.tasks[:count]]

    def runtime_for_pass(self):
        """The runtime a pass replays against.

        A streaming pass evolves the deployed graph, so each one starts
        from a fresh ``prepare()`` (untimed); static passes share the
        warm runtime.
        """
        if self.traffic.deltas:
            self.prepared = open_deployment(self.bundle)
            self.runtime = open_runtime(self.prepared)
        return self.runtime


def set_up(spec: Workload, artifact: str, seed: int,
           recorder: SpanRecorder) -> Online:
    from repro import api
    from repro.serving import ServeTask

    with recorder.span("api.load"):
        bundle = api.DeploymentBundle.load(artifact, mmap=True)
    with recorder.span("api.evaluation_batch"):
        batch = api.evaluation_batch(bundle)
    with recorder.span("harness.build_traffic"):
        traffic = build_traffic(spec, bundle, batch, seed, recorder).head(
            spec.round_requests)
    with recorder.span("prepared.prepare"):
        prepared = open_deployment(bundle)
    state = Online(spec, bundle, batch, traffic, prepared,
                   open_runtime(prepared))
    with recorder.span("harness.warmup"):
        for index, warm in enumerate(state.first_batches(WARMUP_REQUESTS)):
            serve_one(state.runtime, ServeTask(batch=warm), recorder, index)
    state.setup_s = time.perf_counter() - _PROCESS_START
    return state


class Tally:
    """Operations attempted, failed and late over a process's rounds."""

    def __init__(self, limit_ms: float) -> None:
        self.limit_s = limit_ms / 1e3
        self.attempted = 0
        self.errors = 0
        self.late = 0
        self.first_error: str | None = None

    def timed(self, call, *args) -> float | None:
        """Run one operation; its wall time, or ``None`` if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            call(*args)
        except Exception as error:  # noqa: BLE001 — a failed op is counted
            self.failed(error)
            return None
        seconds = time.perf_counter() - start
        self.finished(seconds)
        return seconds

    def failed(self, error: BaseException) -> None:
        self.errors += 1
        if self.first_error is None:
            self.first_error = f"{type(error).__name__}: {error}"

    def finished(self, seconds: float) -> None:
        if seconds > self.limit_s:
            self.late += 1


def latency_pass(state: Online, runtime, recorder: SpanRecorder,
                 tally: Tally, traced=None) -> list:
    """Closed loop, one request in flight, each timed on its own.

    On the streaming workload every fourth read is followed by one
    delta (ingest + drain), which counts as an operation but not as a
    read latency.  ``traced(index)`` switches the recorder per read.
    Returns the read latencies in request order (``None`` = failed).
    """
    deltas = state.traffic.deltas
    reads = []
    for index, task in enumerate(state.traffic.tasks):
        if traced is not None:
            recorder.enabled = traced(index)
        reads.append(tally.timed(serve_one, runtime, task, recorder, index))
        if deltas and (index + 1) % READS_PER_DELTA == 0:
            if traced is not None:
                recorder.enabled = True
            group = index // READS_PER_DELTA
            tally.timed(ingest_one, runtime, deltas[group], recorder, group)
    return reads


def throughput_pass(state: Online, runtime, tally: Tally) -> tuple[list, float]:
    """Bursts submitted, then drained: ``(replies, operations per second)``.

    Static workloads drain ``BURST`` requests at a time; the streaming
    one submits four reads and one delta per drain, and counts both.
    """
    tasks, deltas = state.traffic.tasks, state.traffic.deltas
    size = READS_PER_DELTA if deltas else BURST
    replies: list = []
    start = time.perf_counter()
    for first in range(0, len(tasks), size):
        burst = tasks[first:first + size]
        tally.attempted += len(burst) + bool(deltas)
        futures = []
        ingest = None
        try:
            for task in burst:
                futures.append(runtime.submit(task))
            if deltas:
                ingest = runtime.ingest(deltas[first // size])
            runtime.run_pending()
            if ingest is not None:
                tally.finished(ingest.result(timeout=RESULT_TIMEOUT).seconds)
        except Exception as error:  # noqa: BLE001 — a failed op is counted
            tally.failed(error)
        for future in futures:
            try:
                replies.append(future.result(timeout=RESULT_TIMEOUT))
                tally.finished(future.record.latency_seconds)
            except Exception as error:  # noqa: BLE001
                replies.append(None)
                tally.failed(error)
        replies.extend([None] * (len(burst) - len(futures)))
    wall = time.perf_counter() - start
    return replies, (len(tasks) + len(deltas)) / wall


def operations_done(runtime) -> int:
    """Requests served plus deltas applied, by the runtime's own count."""
    return runtime.stats().requests + runtime.stream_stats()["deltas"]


def run_round(state: Online, recorder: SpanRecorder, tally: Tally) -> dict:
    """Latency pass then throughput pass, with the collector off.

    ``served_all`` compares the runtimes' own counters with the number
    of operations the harness attempted.
    """
    attempted = tally.attempted
    streams = []
    gc.collect()
    gc.disable()
    try:
        runtime = state.runtime_for_pass()
        served = -operations_done(runtime)
        reads = latency_pass(state, runtime, recorder, tally)
        served += operations_done(runtime)
        streams.append(runtime.stream_stats())
        runtime = state.runtime_for_pass()
        served -= operations_done(runtime)
        replies, rps = throughput_pass(state, runtime, tally)
        served += operations_done(runtime)
        streams.append(runtime.stream_stats())
    finally:
        gc.enable()
    result = {"reads": reads, "replies": replies, "rps": rps,
              "served_all": served == tally.attempted - attempted}
    if state.traffic.deltas:
        result["incremental_share"] = (
            sum(stream["incremental"] for stream in streams)
            / sum(stream["deltas"] for stream in streams))
    return result


def measure_accuracy(state: Online) -> float | None:
    """Served predictions against labels, over the whole evaluation batch.

    Which nodes share a request changes their logits slightly, so the
    pass replays the traffic of ``PROGRAM_SEED`` whatever ``--seed``
    is: accuracy is a property of the code, and repeats exactly.
    """
    import numpy as np

    fixed = replace(state, traffic=build_traffic(
        state.spec, state.bundle, state.batch, PROGRAM_SEED,
        SpanRecorder(enabled=False)))
    replies, _ = throughput_pass(fixed, fixed.runtime_for_pass(),
                                 Tally(state.spec.latency_limit_ms))
    if any(reply is None for reply in replies):
        return None
    predicted = np.vstack(replies).argmax(axis=1)
    return float((predicted == fixed.traffic.labels).mean())


def verify(state: Online) -> dict:
    """Bitwise checks against the reference paths (Eq. 3 / Eq. 11).

    Runs after the timed rounds, so on the streaming workload
    ``state.prepared`` is the deployment the last pass evolved.
    """
    import numpy as np
    from repro.inference.engine import InductiveServer
    from repro.serving import ServeTask
    from repro.serving.prepared import PreparedDeployment

    bundle = state.bundle
    quiet = SpanRecorder(enabled=False)
    runtime = open_runtime(bundle.prepare())
    naive = InductiveServer(bundle.model(), bundle.deployment, bundle.base,
                            bundle.condensed, use_cache=False)
    parity = True
    for index, batch in enumerate(state.first_batches(PARITY_REQUESTS)):
        served = serve_one(runtime, ServeTask(batch=batch), quiet, index)
        reference, _, _ = naive.serve_batch(batch, BATCH_MODE)
        parity = parity and bool(np.array_equal(served, reference))
    checks = {"runtime_equals_naive": parity}
    if state.traffic.deltas:
        evolved = state.prepared
        fresh = PreparedDeployment(bundle.model(), "original", evolved.base)
        same = True
        for batch in state.first_batches(READS_PER_DELTA):
            probe = with_width(batch, evolved.num_base)
            left, _, _ = evolved.serve_batch(probe, BATCH_MODE)
            right, _, _ = fresh.serve_batch(probe, BATCH_MODE)
            same = same and bool(np.array_equal(left, right))
        checks["evolved_equals_fresh"] = same
    return checks


def run_online(spec: Workload, artifact: str, seed: int, seconds: float,
               check: bool) -> dict:
    quiet = SpanRecorder(enabled=False)
    state = set_up(spec, artifact, seed, quiet)
    tally = Tally(spec.latency_limit_ms)
    budget = seconds / ONLINE_PROCESSES
    rounds = []
    accuracy = None
    checks = {"rounds_served_all": True}
    if state.traffic.deltas:
        checks["deltas_incremental"] = True
    loop_start = time.perf_counter()
    while len(rounds) < MAX_ROUNDS_PER_PROCESS:
        round_start = time.perf_counter()
        result = run_round(state, quiet, tally)
        now = time.perf_counter()
        reads_ms = [read * 1e3 for read in result["reads"]
                    if read is not None]
        rounds.append({
            "latency_p50_ms": median(reads_ms),
            "latency_p95_ms": tail_percentile(reads_ms, 95.0),
            "throughput_rps": result["rps"],
            "samples": len(reads_ms),
        })
        checks["rounds_served_all"] &= result["served_all"]
        if state.traffic.deltas:
            checks["deltas_incremental"] &= (
                result["incremental_share"] >= MIN_INCREMENTAL_SHARE)
        # always the minimum; after that, only rounds that fit the budget
        if (len(rounds) >= spec.min_rounds
                and (now - loop_start) + (now - round_start) > budget):
            break
    if check:
        checks.update(verify(state))
        accuracy = measure_accuracy(state)
    return {
        "setup_s": state.setup_s,
        "memory_mb": peak_rss_mb(),
        "rounds": rounds,
        "accuracy": accuracy,
        "attempted": tally.attempted,
        "errors": tally.errors,
        "late": tally.late,
        "first_error": tally.first_error,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# traced: per-layer numbers and the tier waterfall
# ----------------------------------------------------------------------
def p50_ms(call, items) -> float:
    """Median wall time of ``call(item)`` over ``items``, in ms."""
    samples = []
    for item in items:
        start = time.perf_counter()
        call(item)
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


def mean_us(call, items) -> float:
    start = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - start) / len(items) * 1e6


def runtime_layers(state: Online, recorder: SpanRecorder,
                   tally: Tally) -> dict:
    """The inline runtime's numbers, and what tracing them costs.

    Two latency passes: the first traces the even requests, the second
    the odd ones, so every request is timed once each way and machine
    drift between passes cancels out of the overhead share.
    """
    traced: list[float] = []
    untraced: list[float] = []
    for parity in (0, 1):
        runtime = state.runtime_for_pass()
        reads = latency_pass(state, runtime, recorder, tally,
                             traced=lambda index: index % 2 == parity)
        traced += reads[parity::2]
        untraced += reads[1 - parity::2]
    recorder.enabled = True
    inline = runtime.stats()
    runtime = state.runtime_for_pass()
    before = runtime.stats()
    with recorder.span("harness.throughput_pass"):
        throughput_pass(state, runtime, tally)
    after = runtime.stats()
    if tally.errors:
        raise SystemExit(f"traced passes failed: {tally.first_error}")
    return {
        "telemetry.trace_overhead_share": sum(traced) / sum(untraced) - 1.0,
        "runtime.inline_p50_ms": median(untraced) * 1e3,
        "runtime.queue_wait_ms": inline.queue_wait_mean * 1e3,
        "runtime.compute_ms": inline.compute_mean * 1e3,
        "runtime.batch_requests_mean": (
            (after.requests - before.requests)
            / (after.batches - before.batches)),
    }


STREAM_LAYERS = ("graph.stream_apply_ms", "prepared.apply_delta_ms",
                 "prepared.delta_incremental_share", "prepared.rebuild_ms",
                 "prepared.post_delta_read_ms")


def stream_layers(state: Online, recorder: SpanRecorder) -> dict:
    """What a delta costs in ``graph.stream`` and in ``serving.prepared``.

    Workloads that apply no deltas do no work in these layers: zero.
    """
    from repro.graph.stream import StreamingGraph

    deltas = state.traffic.deltas
    if not deltas:
        return dict.fromkeys(STREAM_LAYERS, 0.0)
    with recorder.span("graph.stream_apply"):
        stream = StreamingGraph(state.bundle.base.copy())
        start = time.perf_counter()
        for delta in deltas:
            stream.apply(delta)
        applied_ms = (time.perf_counter() - start) / len(deltas) * 1e3
    with recorder.span("prepared.apply_delta"):
        incremental = open_deployment(state.bundle)
        reports = [incremental.apply_delta(
            delta, staleness_threshold=STALENESS_THRESHOLD)
            for delta in deltas]
    with recorder.span("prepared.rebuild"):
        rebuilt = open_deployment(state.bundle)
        rebuilds = [rebuilt.apply_delta(delta, staleness_threshold=0.0)
                    for delta in deltas[:len(deltas) // 4]]
    # the first read after a delta pays for the caches the delta dropped
    after_delta = [span.duration for span in recorder.spans
                   if span.name == "request" and span.parent is None
                   and span.request and span.request % READS_PER_DELTA == 0]
    return dict(zip(STREAM_LAYERS, (
        applied_ms,
        sum(report.seconds for report in reports) / len(reports) * 1e3,
        sum(report.mode == "incremental" for report in reports)
        / len(reports),
        sum(report.seconds for report in rebuilds) / len(rebuilds) * 1e3,
        median(after_delta) * 1e3)))


def take_turns(tiers: list, tasks: list, recorder: SpanRecorder) -> dict:
    """Each task through every tier in turn: ``{tier: [seconds, ...]}``.

    Whichever tier goes first finds the caches coldest, so the starting
    tier rotates from request to request.
    """
    seconds = {name: [] for name, _ in tiers}
    for index, task in enumerate(tasks):
        turn = index % len(tiers)
        for name, call in tiers[turn:] + tiers[:turn]:
            with recorder.span(f"tier.{name}", index):
                start = time.perf_counter()
                call(task)
                seconds[name].append(time.perf_counter() - start)
    return seconds


def waterfall(state: Online, artifact: str, recorder: SpanRecorder) -> dict:
    """The same requests through every serving tier, one in flight.

    Tiers that share a working set take turns request by request —
    direct and inline serving on one thread and one prepared cache,
    fleet and gateway on one replica process and one client connection —
    so what the upper one adds (``runtime.overhead_ms``,
    ``gateway.hop_ms``) is a median of *paired* differences, free of
    machine drift.  Tiers that run on another thread or process go one
    after the other: alternating with them per request would evict each
    one's graph and temporaries from the cache and time neither in its
    steady state (an original-graph request rose from 25 to 35-43 ms).
    """
    from repro.inference.engine import InductiveServer
    from repro.serving import ServeTask
    from repro.serving.fleet import ServingFleet
    from repro.serving.gateway import ServingGateway
    from repro.serving.protocol import GatewayClient

    bundle = state.bundle
    batches = state.first_batches(state.spec.waterfall_requests)
    tasks = [ServeTask(batch=batch) for batch in batches]
    prepared = open_deployment(bundle)  # un-evolved, whatever ran before
    quiet = SpanRecorder(enabled=False)
    inline = open_runtime(prepared)
    seconds = take_turns([
        ("prepared", lambda task: prepared.serve_task(
            task, batch_mode=BATCH_MODE)),
        ("inline", lambda task: serve_one(inline, task, quiet, 0)),
    ], tasks, recorder)
    with open_runtime(prepared) as threaded:
        seconds.update(take_turns([
            ("threaded", lambda task: threaded.submit(task).result(
                timeout=RESULT_TIMEOUT)),
        ], tasks, recorder))
    with recorder.span("tier.naive"):
        naive = InductiveServer(bundle.model(), bundle.deployment,
                                bundle.base, bundle.condensed,
                                use_cache=False)
        naive_ms = p50_ms(lambda batch: naive.serve_batch(batch, BATCH_MODE),
                          batches[:PARITY_REQUESTS])

    start = time.perf_counter()
    fleet = ServingFleet(artifact, 1, batch_mode=BATCH_MODE)
    ready_s = time.perf_counter() - start
    gateway = ServingGateway(fleet, owns_fleet=True)
    replies: list = []
    try:
        gateway.start()
        with GatewayClient(*gateway.address, encoding="binary") as client:
            seconds.update(take_turns([
                ("fleet", lambda task: fleet.submit_batch(task).result(
                    timeout=RESULT_TIMEOUT)),
                ("gateway", lambda task: replies.append(
                    client.serve_batch(task))),
            ], tasks, recorder))
    finally:
        gateway.close()
    if not all(reply.ok for reply in replies):
        raise SystemExit("a gateway reply in the waterfall was not ok")

    def p50(tier: str) -> float:
        return median(seconds[tier]) * 1e3

    def paired_ms(upper: str, lower: str) -> float:
        return median(high - low for high, low
                      in zip(seconds[upper], seconds[lower])) * 1e3

    layers = {
        "prepared.serve_task_ms": p50("prepared"),
        "runtime.overhead_ms": paired_ms("inline", "prepared"),
        "runtime.threaded_p50_ms": p50("threaded"),
        "engine.naive_serve_ms": naive_ms,
        "prepared.cache_speedup": naive_ms / p50("prepared"),
        "fleet.ready_s": ready_s,
        "fleet.p50_ms": p50("fleet"),
        "fleet.hop_ms": p50("fleet") - p50("prepared"),
        "gateway.p50_ms": p50("gateway"),
        "gateway.hop_ms": paired_ms("gateway", "fleet"),
    }
    layers.update(prepared_layers(prepared, batches, recorder))
    layers.update(protocol_layers(prepared, tasks, recorder))
    return layers


def prepared_layers(prepared, batches: list, recorder: SpanRecorder) -> dict:
    """Pieces of a request, and the other task types, straight on the cache."""
    import numpy as np
    from repro.serving import ServeTask
    from repro.tensor import Tensor, no_grad

    def forward(_):
        with no_grad():
            prepared.model(prepared.base_operator(),
                           Tensor(prepared.base_features))

    layers = {}
    with recorder.span("harness.prepared_layers"):
        layers["prepared.attach_normalize_ms"] = p50_ms(
            lambda batch: prepared.attach_normalize(
                batch.incremental, batch.features, None), batches)
        layers["nn.forward_ms"] = p50_ms(forward, range(5))
        layers["prepared.serve_frozen_ms"] = p50_ms(
            lambda batch: prepared.serve_batch_frozen(batch, BATCH_MODE),
            batches)
        prepared.invalidate_embeddings()
        start = time.perf_counter()
        prepared.embedding_index()
        layers["embeddings.index_build_ms"] = (
            time.perf_counter() - start) * 1e3
        # each request node scored against one deployed node; the ids
        # must exist in a synthetic deployment's small base as well
        pairs = [np.stack([np.arange(batch.num_nodes),
                           (np.arange(batch.num_nodes) + index)
                           % prepared.num_base], axis=1)
                 for index, batch in enumerate(batches)]
        for layer, name in (("embeddings.embed_ms", "embed"),
                            ("embeddings.topk_ms", "topk"),
                            ("embeddings.link_score_ms", "link_score")):
            layers[layer] = p50_ms(
                lambda task: prepared.serve_task(task, batch_mode=BATCH_MODE),
                [ServeTask(batch=batch, task=name,
                           pairs=pair if name == "link_score" else None)
                 for batch, pair in zip(batches, pairs)])
    return layers


def protocol_layers(prepared, tasks: list, recorder: SpanRecorder) -> dict:
    """Encoding and decoding one frame each way, binary encoding."""
    import numpy as np
    from repro.serving.protocol import (
        decode_reply,
        decode_serve_request,
        encode_reply,
        encode_serve_request,
        read_frame_from,
    )

    with recorder.span("harness.protocol_layers"):
        frames = [encode_serve_request(index, task, encoding="binary")
                  for index, task in enumerate(tasks)]
        logits = np.asarray(
            prepared.serve_task(tasks[0], batch_mode=BATCH_MODE)[0])
        reply = encode_reply(1, "ok", logits=logits, encoding="binary")
        return {
            "protocol.request_frame_bytes": (
                sum(len(frame) for frame in frames) / len(frames)),
            "protocol.encode_request_us": mean_us(
                lambda task: encode_serve_request(1, task, encoding="binary"),
                tasks),
            "protocol.decode_request_us": mean_us(
                lambda frame: decode_serve_request(
                    *read_frame_from(io.BytesIO(frame).read)), frames),
            "protocol.encode_reply_us": mean_us(
                lambda _: encode_reply(1, "ok", logits=logits,
                                       encoding="binary"), tasks),
            "protocol.decode_reply_us": mean_us(
                lambda _: decode_reply(
                    *read_frame_from(io.BytesIO(reply).read)), tasks),
        }


def run_traced(spec: Workload, artifact: str, seed: int,
               trace_path: str) -> dict:
    from repro.graph import load_dataset

    recorder = SpanRecorder(enabled=True)
    state = set_up(spec, artifact, seed, recorder)
    with recorder.span("graph.load_dataset"):
        load_dataset(spec.dataset, seed=PROGRAM_SEED, scale=spec.scale)
    tally = Tally(spec.latency_limit_ms)
    layers = runtime_layers(state, recorder, tally)
    layers.update(stream_layers(state, recorder))
    layers.update(waterfall(state, artifact, recorder))
    by_name = recorder.total_by_name()
    for layer, name in (("graph.load_dataset_ms", "graph.load_dataset"),
                        ("graph.delta_trace_ms", "graph.make_delta_trace"),
                        ("api.load_ms", "api.load"),
                        ("api.evaluation_batch_ms", "api.evaluation_batch"),
                        ("prepared.prepare_ms", "prepared.prepare")):
        layers[layer] = by_name.get(name, {"total_s": 0.0})["total_s"] * 1e3
    recorder.dump(trace_path)
    return {"layers": layers, "setup_s": state.setup_s,
            "attempted": tally.attempted, "errors": tally.errors,
            "spans": len(recorder.spans)}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("offline", "online", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--check", action="store_true",
                        help="online: also run the bitwise verification")
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)
    pinned = require_pinned_environment()
    spec = WORKLOADS[args.workload]
    if args.phase == "offline":
        result = run_offline(spec, args.artifact)
    elif args.phase == "online":
        result = run_online(spec, args.artifact, args.seed, args.seconds,
                            args.check)
    else:
        result = run_traced(spec, args.artifact, args.seed, args.trace_path)
    import numpy
    import scipy

    result["pinned_env"] = pinned
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["wall_s"] = time.perf_counter() - _PROCESS_START
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
