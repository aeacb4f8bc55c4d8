"""Synthetic request workloads: Poisson arrivals over an inductive stream.

The paper evaluates exactly two serving regimes (one big graph batch, one
big node batch).  Real deployments see *traffic*: requests arriving over
time.  :class:`PoissonWorkload` produces arrival offsets for a request
stream; :func:`split_requests` slices a dataset's inductive batch
into the per-request payloads; :func:`replay` drives a
:class:`~repro.serving.runtime.ServingRuntime` with them, either open-loop
(honour arrival times with real sleeps) or closed-loop (submit eagerly,
let the scheduler drain — the reproducible mode used by tests and CI).

Arrivals are deterministic given a seed (or an explicit ``numpy``
Generator), which is what keeps runs comparable across commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.serving.embeddings import ServeTask

__all__ = ["PoissonWorkload", "split_requests", "replay", "replay_stream",
           "settle"]


@dataclass
class PoissonWorkload:
    """Memoryless arrivals at a constant ``rate`` (requests/second)."""

    rate: float = 200.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ServingError(f"rate must be positive, got {self.rate}")

    def arrivals(self, num_requests: int,
                 rng: np.random.Generator | int | None = None) -> np.ndarray:
        """``num_requests`` non-decreasing arrival offsets (seconds): the
        running sum of exponential gaps with mean ``1 / rate``."""
        if num_requests < 0:
            raise ServingError(
                f"num_requests must be non-negative, got {num_requests}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return np.cumsum(rng.exponential(1.0 / self.rate, num_requests))


# ----------------------------------------------------------------------
# Turning a dataset's inductive batch into a request stream
# ----------------------------------------------------------------------
def split_requests(batch: IncrementalBatch, num_requests: int,
                   nodes_per_request: int = 1) -> list[IncrementalBatch]:
    """Slice an inductive batch into per-request payloads, cycling when
    ``num_requests * nodes_per_request`` exceeds the batch."""
    if batch.num_nodes == 0:
        raise ServingError("cannot build requests from an empty batch")
    if num_requests <= 0 or nodes_per_request <= 0:
        raise ServingError("num_requests and nodes_per_request must be positive")
    requests = []
    total = batch.num_nodes
    cursor = 0
    for _ in range(num_requests):
        idx = (np.arange(cursor, cursor + nodes_per_request)) % total
        requests.append(batch.subset(idx))
        cursor = (cursor + nodes_per_request) % total
    return requests


def settle(futures, timeout: float) -> list:
    """Each future's result, or the exception that failed its request.

    Like ``asyncio.gather(..., return_exceptions=True)``: a failed or
    shed request is an outcome, so one failure does not abort a replay
    and its cause stays readable.  A future still pending after
    ``timeout`` raises.
    """
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=timeout))
        except Exception as error:  # noqa: BLE001 — a failed request is an outcome
            if not future.done():
                raise  # a genuine timeout, not a per-request failure
            outcomes.append(error)
    return outcomes


def replay(runtime, requests: list[ServeTask],
           arrivals: np.ndarray | None = None, *,
           speed: float = 1.0, timeout: float = 60.0) -> list:
    """Drive a runtime with a request stream; returns per-request results.

    With ``arrivals`` (open loop) the caller sleeps until each arrival
    offset (divided by ``speed``) before submitting — queue waits then
    reflect the traffic shape.  Without (closed loop) every request is
    submitted immediately and the scheduler drains at full tilt; if the
    runtime's loop is not running, pending work is served inline, which
    keeps the mode usable (and deterministic) without threads.

    Requests the runtime sheds (``reject`` overflow) or
    fails while serving yield their exception in the result list instead
    of aborting the replay (see :func:`settle`) — ``runtime.stats()``
    carries the rejected/failed counts.  A request that never completes
    within ``timeout`` still raises.
    """
    if arrivals is not None and len(arrivals) != len(requests):
        raise ServingError(
            f"{len(arrivals)} arrival offsets for {len(requests)} requests")
    if speed <= 0:
        raise ServingError(f"speed must be positive, got {speed}")
    futures = []
    started = time.perf_counter()
    inline = runtime._thread is None
    # With no consumer thread a 'block' put would deadlock on a full
    # queue, so drain first; 'reject' sheds as configured.
    drain_before_block = inline and runtime.queue.overflow == "block"
    for i, request in enumerate(requests):
        if arrivals is not None:
            wait = arrivals[i] / speed - (time.perf_counter() - started)
            if wait > 0:
                time.sleep(wait)
        if drain_before_block and len(runtime.queue) >= runtime.queue.capacity:
            runtime.run_pending()
        futures.append(runtime.submit(request))
    if inline:
        runtime.run_pending()
    return settle(futures, timeout)


def replay_stream(runtime, requests: list[ServeTask], deltas,
                  ingest_every: int = 4) -> list:
    """Closed-loop replay of serve traffic with deltas interleaved.

    Submits ``requests`` in groups of ``ingest_every``, ingests one delta
    after each group, and drains synchronously (``run_pending``) so every
    micro-batch and every refresh happens in a deterministic order.
    Deltas left over when the request stream ends are ingested and
    applied at the tail.  Shared by ``repro serve-stream`` and the
    streaming benchmark so the interleaving semantics cannot diverge.
    Returns per-request results, a failed request's exception in its
    slot (see :func:`settle`).
    """
    if ingest_every <= 0:
        raise ServingError(
            f"ingest_every must be positive, got {ingest_every}")
    pending = iter(deltas)
    futures = []
    for start in range(0, len(requests), ingest_every):
        for request in requests[start:start + ingest_every]:
            futures.append(runtime.submit(request))
        delta = next(pending, None)
        if delta is not None:
            runtime.ingest(delta)
        runtime.run_pending()
    for delta in pending:
        runtime.ingest(delta)
    runtime.run_pending()
    return settle(futures, timeout=0.0)
