"""Per-request latency accounting for the serving runtime.

Each served request contributes one :class:`RequestRecord` with its queue
wait (enqueue → dequeue) and compute time (its micro-batch's merge,
attach and forward, shared by every request in the batch).  :class:`LatencyAccounting`
aggregates them into the percentile summary the ROADMAP's serving story is
measured by — p50/p95/p99 end-to-end latency, the wait/compute split, and
throughput.  Quantiles come from :func:`latency_percentiles`, which the
fleet's stats page shares, so every latency report in the repo
interpolates the same way.

This is the runtime's only accounting: exact counters plus true
percentiles over a sliding window.  The fleet and the gateway, which
serve ``GET /metrics``, additionally feed the fixed-bucket
``repro_stage_latency_seconds`` histograms of :mod:`repro.telemetry`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServingError


def _json_safe(value: float) -> float | None:
    """NaN/inf become ``None`` so the dict stays strict-JSON clean."""
    return value if math.isfinite(value) else None

# Percentiles are computed over a sliding window of the most recent
# requests; lifetime counters stay exact.  The bound keeps a long-lived
# runtime's accounting memory (and each stats() pass) constant.
DEFAULT_WINDOW = 65536

PERCENTILES = (50.0, 95.0, 99.0)

__all__ = ["RequestRecord", "RuntimeStats", "LatencyAccounting",
           "latency_percentiles"]


def latency_percentiles(samples, *,
                        empty: float | None = None) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of a latency sample set.

    The single quantile implementation (linear interpolation) behind the
    runtime's per-request accounting and the fleet's stats page.

    With no samples the default is to raise; pass ``empty`` (typically
    ``float("nan")``) to get that value back for every percentile instead
    — the NaN-safe shape a runtime polled before its first completed
    request needs.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        if empty is None:
            raise ServingError("percentiles need at least one sample")
        return {f"p{int(p)}": float(empty) for p in PERCENTILES}
    values = np.percentile(arr, PERCENTILES)
    return {f"p{int(p)}": float(v) for p, v in zip(PERCENTILES, values)}


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one request through the runtime."""

    num_nodes: int
    queue_seconds: float
    compute_seconds: float
    batch_size: int  # requests coalesced into its micro-batch

    @property
    def latency_seconds(self) -> float:
        return self.queue_seconds + self.compute_seconds


@dataclass(frozen=True)
class RuntimeStats:
    """Aggregated serving statistics over a runtime's lifetime (so far).

    Counters (``requests``/``nodes``/``batches``/``rejected``) are exact
    lifetime totals; latency means and percentiles summarize the most
    recent :data:`DEFAULT_WINDOW` requests.
    """

    requests: int
    nodes: int
    batches: int
    rejected: int
    failed: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    queue_wait_mean: float
    compute_mean: float
    mean_batch_requests: float
    wall_seconds: float

    @property
    def throughput_rps(self) -> float:
        """Requests per second over the observed wall-clock window."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    @property
    def throughput_nodes_per_s(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.nodes / self.wall_seconds

    def as_dict(self) -> dict:
        """JSON-ready view of the summary.

        Latency fields of an idle runtime (no completed requests yet) are
        NaN in the dataclass and serialize as ``None`` here — strict JSON
        has no NaN, and ``0.0`` would read as a real measurement.
        """
        return {
            "requests": self.requests,
            "nodes": self.nodes,
            "batches": self.batches,
            "rejected": self.rejected,
            "failed": self.failed,
            "latency_p50_ms": _json_safe(self.latency_p50 * 1e3),
            "latency_p95_ms": _json_safe(self.latency_p95 * 1e3),
            "latency_p99_ms": _json_safe(self.latency_p99 * 1e3),
            "latency_mean_ms": _json_safe(self.latency_mean * 1e3),
            "queue_wait_mean_ms": _json_safe(self.queue_wait_mean * 1e3),
            "compute_mean_ms": _json_safe(self.compute_mean * 1e3),
            "mean_batch_requests": self.mean_batch_requests,
            "throughput_rps": self.throughput_rps,
            "throughput_nodes_per_s": self.throughput_nodes_per_s,
        }


@dataclass
class LatencyAccounting:
    """Collects :class:`RequestRecord`s and summarizes them on demand.

    Written from both the serving loop (batches) and producer threads
    (rejections), so every mutation and the summary snapshot take the
    internal lock.  Only the last ``window`` records are retained for
    percentile/mean computation — the request/node/batch/rejection
    counters cover the whole lifetime regardless.
    """

    window: int = DEFAULT_WINDOW
    rejected: int = 0
    failed: int = 0
    batches: int = 0
    requests_total: int = 0
    nodes_total: int = 0
    _first_start: float | None = None
    _last_end: float | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        self.records: deque[RequestRecord] = deque(maxlen=self.window)

    def observe_batch(self, records: list[RequestRecord], started: float,
                      finished: float) -> None:
        with self._lock:
            self.records.extend(records)
            self.batches += 1
            self.requests_total += len(records)
            self.nodes_total += sum(r.num_nodes for r in records)
            if self._first_start is None or started < self._first_start:
                self._first_start = started
            if self._last_end is None or finished > self._last_end:
                self._last_end = finished

    def observe_rejection(self, count: int = 1) -> None:
        with self._lock:
            self.rejected += count

    def observe_failure(self, count: int = 1) -> None:
        """Requests admitted but whose micro-batch raised while serving."""
        with self._lock:
            self.failed += count

    def summary(self) -> RuntimeStats:
        with self._lock:
            records = list(self.records)
            rejected = self.rejected
            failed = self.failed
            batches = self.batches
            requests_total = self.requests_total
            nodes_total = self.nodes_total
            first_start = self._first_start
            last_end = self._last_end
        if not records:
            # An idle or fully-shedding runtime must still report — the
            # rejection/failure counts are exactly what an overloaded
            # operator reads.  Latency fields are NaN, not 0.0: a zero
            # would masquerade as a real (excellent) measurement when the
            # runtime is polled before its first completed request.
            tail = latency_percentiles([], empty=math.nan)
            return RuntimeStats(
                requests=requests_total, nodes=nodes_total, batches=batches,
                rejected=rejected, failed=failed,
                latency_p50=tail["p50"], latency_p95=tail["p95"],
                latency_p99=tail["p99"],
                latency_mean=math.nan, queue_wait_mean=math.nan,
                compute_mean=math.nan,
                mean_batch_requests=0.0, wall_seconds=0.0)
        latencies = np.asarray([r.latency_seconds for r in records])
        waits = np.asarray([r.queue_seconds for r in records])
        computes = np.asarray([r.compute_seconds for r in records])
        tail = latency_percentiles(latencies)
        wall = 0.0
        if first_start is not None and last_end is not None:
            wall = max(last_end - first_start, 0.0)
        return RuntimeStats(
            requests=requests_total,
            nodes=nodes_total,
            batches=batches,
            rejected=rejected,
            failed=failed,
            latency_p50=tail["p50"],
            latency_p95=tail["p95"],
            latency_p99=tail["p99"],
            latency_mean=float(latencies.mean()),
            queue_wait_mean=float(waits.mean()),
            compute_mean=float(computes.mean()),
            mean_batch_requests=requests_total / max(batches, 1),
            wall_seconds=wall)
