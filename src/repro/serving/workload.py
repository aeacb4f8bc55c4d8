"""Synthetic request workloads: arrival processes over an inductive stream.

The paper evaluates exactly two serving regimes (one big graph batch, one
big node batch).  Real deployments see *traffic*: requests arriving over
time, unevenly.  A workload generator produces arrival offsets for a
request stream; :func:`split_requests` slices a dataset's inductive batch
into the per-request payloads; :func:`replay` drives a
:class:`~repro.serving.runtime.ServingRuntime` with them, either open-loop
(honour arrival times with real sleeps) or closed-loop (submit eagerly,
let the scheduler drain — the reproducible mode used by tests and CI).

Generators are pluggable through :data:`repro.registry.WORKLOADS` and are
deterministic given a seed (or an explicit ``numpy`` Generator), which is
what keeps benchmark runs comparable across commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.registry import register_workload
from repro.serving.embeddings import ServeTask

__all__ = ["WorkloadGenerator", "PoissonWorkload", "BurstyWorkload",
           "RampWorkload", "split_requests", "replay", "replay_stream"]


class WorkloadGenerator:
    """Base class: produce non-decreasing arrival offsets (seconds)."""

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def arrivals(self, num_requests: int,
                 rng: np.random.Generator | int | None = None) -> np.ndarray:
        """``num_requests`` arrival offsets from a (possibly varying) rate.

        Uses sequential exponential gaps at the instantaneous rate — exact
        for constant-rate processes, a standard fine-grained approximation
        for the time-varying ones.
        """
        if num_requests < 0:
            raise ServingError(
                f"num_requests must be non-negative, got {num_requests}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        offsets = np.empty(num_requests, dtype=np.float64)
        t = 0.0
        for i in range(num_requests):
            rate = self.rate_at(t)
            if rate <= 0:
                raise ServingError(f"arrival rate must stay positive, got {rate}")
            t += rng.exponential(1.0 / rate)
            offsets[i] = t
        return offsets


@dataclass
class PoissonWorkload(WorkloadGenerator):
    """Memoryless arrivals at a constant ``rate`` (requests/second)."""

    rate: float = 200.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ServingError(f"rate must be positive, got {self.rate}")

    def rate_at(self, t: float) -> float:
        return self.rate


@dataclass
class BurstyWorkload(WorkloadGenerator):
    """Alternating calm/burst phases (square-wave rate).

    Each ``period_s`` window spends ``duty`` of its length at
    ``burst_rate`` and the rest at ``base_rate`` — the shape that stresses
    queue bounds and the scheduler's wait cap.
    """

    base_rate: float = 50.0
    burst_rate: float = 500.0
    period_s: float = 1.0
    duty: float = 0.2

    def __post_init__(self) -> None:
        if min(self.base_rate, self.burst_rate) <= 0:
            raise ServingError("bursty rates must be positive")
        if self.period_s <= 0:
            raise ServingError(f"period_s must be positive, got {self.period_s}")
        if not 0.0 < self.duty < 1.0:
            raise ServingError(f"duty must be in (0, 1), got {self.duty}")

    def rate_at(self, t: float) -> float:
        phase = (t % self.period_s) / self.period_s
        return self.burst_rate if phase < self.duty else self.base_rate


@dataclass
class RampWorkload(WorkloadGenerator):
    """Linearly increasing rate — find where the runtime saturates.

    The rate climbs from ``start_rate`` to ``end_rate`` over ``duration_s``
    and stays at ``end_rate`` afterwards.
    """

    start_rate: float = 20.0
    end_rate: float = 400.0
    duration_s: float = 2.0

    def __post_init__(self) -> None:
        if min(self.start_rate, self.end_rate) <= 0:
            raise ServingError("ramp rates must be positive")
        if self.duration_s <= 0:
            raise ServingError(
                f"duration_s must be positive, got {self.duration_s}")

    def rate_at(self, t: float) -> float:
        if t >= self.duration_s:
            return self.end_rate
        frac = t / self.duration_s
        return self.start_rate + frac * (self.end_rate - self.start_rate)


@register_workload("poisson",
                   description="memoryless arrivals at a constant rate")
def _poisson(rate: float = 200.0, **_ignored) -> PoissonWorkload:
    return PoissonWorkload(rate=rate)


@register_workload("bursty",
                   description="square-wave calm/burst arrival rate")
def _bursty(rate: float | None = None, base_rate: float = 50.0,
            burst_rate: float = 500.0, period_s: float = 1.0,
            duty: float = 0.2, **_ignored) -> BurstyWorkload:
    """``rate``, when given, sets the *duty-weighted mean* rate while
    keeping the burst/calm shape (burst stays 4x the calm rate)."""
    if rate is not None:
        base_rate = rate / (1.0 + 3.0 * duty)
        burst_rate = 4.0 * base_rate
    return BurstyWorkload(base_rate=base_rate, burst_rate=burst_rate,
                          period_s=period_s, duty=duty)


@register_workload("ramp",
                   description="linearly increasing rate up to saturation")
def _ramp(rate: float | None = None, start_rate: float = 20.0,
          end_rate: float = 400.0, duration_s: float = 2.0,
          **_ignored) -> RampWorkload:
    """``rate``, when given, centres the ramp on it (rate/2 → 3·rate/2)."""
    if rate is not None:
        start_rate = rate * 0.5
        end_rate = rate * 1.5
    return RampWorkload(start_rate=start_rate, end_rate=end_rate,
                        duration_s=duration_s)


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


def replay(runtime, requests: list[ServeTask],
           arrivals: np.ndarray | None = None, *,
           speed: float = 1.0, timeout: float = 60.0) -> list[np.ndarray | None]:
    """Drive a runtime with a request stream; returns per-request logits.

    With ``arrivals`` (open loop) the caller sleeps until each arrival
    offset (divided by ``speed``) before submitting — queue waits then
    reflect the traffic shape.  Without (closed loop) every request is
    submitted immediately and the scheduler drains at full tilt; if the
    runtime's loop is not running, pending work is served inline, which
    keeps the mode usable (and deterministic) without threads.

    Requests the runtime sheds (``reject``/``drop_oldest`` overflow) or
    fails while serving yield ``None`` in the result list instead of
    aborting the replay — ``runtime.stats()`` carries the rejected/failed
    counts.  A request that never completes within ``timeout`` still
    raises.
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
    # queue, so drain first; 'reject'/'drop_oldest' shed as configured.
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
    results: list[np.ndarray | None] = []
    for future in futures:
        try:
            results.append(future.result(timeout=timeout))
        except Exception:  # noqa: BLE001 — shed/failed requests become None
            if not future.done():
                raise  # a genuine timeout, not a per-request failure
            results.append(None)
    return results


def replay_stream(runtime, requests: list[ServeTask], deltas,
                  ingest_every: int = 4) -> None:
    """Closed-loop replay of serve traffic with deltas interleaved.

    Submits ``requests`` in groups of ``ingest_every``, ingests one delta
    after each group, and drains synchronously (``run_pending``) so every
    micro-batch and every refresh happens in a deterministic order.
    Deltas left over when the request stream ends are ingested and
    applied at the tail.  Shared by ``repro serve-stream`` and the
    streaming benchmark so the interleaving semantics cannot diverge.
    """
    if ingest_every <= 0:
        raise ServingError(
            f"ingest_every must be positive, got {ingest_every}")
    pending = iter(deltas)
    for start in range(0, len(requests), ingest_every):
        for request in requests[start:start + ingest_every]:
            runtime.submit(request)
        delta = next(pending, None)
        if delta is not None:
            runtime.ingest(delta)
        runtime.run_pending()
    for delta in pending:
        runtime.ingest(delta)
    runtime.run_pending()
