"""Per-request stage tracing across the serving layers.

A :class:`TraceContext` is stamped where a request enters the system
(gateway admission, or fleet submit), carried by reference through the
layers that touch the request — the frame protocol header contributes
the trace id, and the replica worker times its sub-stages under a trace
of its own — and accumulates one :class:`StageSpan` per serving stage.
The gateway-path stages, in request order:

- ``admission``  — gateway: decode + shed decision + admission queue;
- ``dispatch``   — fleet: submit → the replica worker dequeues (IPC +
  replica queue wait; ``time.perf_counter`` is CLOCK_MONOTONIC on the
  platforms we serve on, so parent/child stamps are comparable);
- ``serve``      — replica: operator assembly + forward (the worker's
  ``serve.operator``/``serve.forward`` sub-spans break this down);
- ``collect``    — fleet: worker reply → parent resolves the future;
- ``reply``      — gateway: encode + enqueue the reply frame.

Within one thread the *current* trace travels in a :mod:`contextvars`
variable so deep layers (``prepared.serve_batch``) can contribute
sub-spans without threading a handle through every signature:
:func:`use_trace` installs it and :func:`stage_span` writes through it;
without an active trace a span does nothing.

Completed traces land in a :class:`TraceLog`: a bounded ring with
``slowest(n)`` for postmortems.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.metrics import TelemetryError

__all__ = [
    "StageSpan",
    "TraceContext",
    "TraceLog",
    "new_trace_id",
    "use_trace",
    "stage_span",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class StageSpan:
    """One timed stage of one request."""

    stage: str
    seconds: float


class TraceContext:
    """Trace id plus the stage spans one request accumulated so far.

    Spans are appended by whichever layer currently owns the request;
    the handoffs are ordered (admission happens-before dispatch
    happens-before the completion callback), and the internal lock makes
    the ring/snapshot reads safe from other threads regardless.
    """

    __slots__ = ("trace_id", "started", "labels", "spans", "_stack",
                 "_lock", "_total")

    def __init__(self, trace_id: str | None = None,
                 labels: dict | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started = time.perf_counter()
        self.labels: dict[str, str] = dict(labels or {})
        self.spans: list[StageSpan] = []
        self._stack: list[str] = []  # nested stage_span() name prefix
        self._lock = threading.Lock()
        self._total: float | None = None

    def add_stage(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.spans.append(StageSpan(stage, float(seconds)))

    def finish(self) -> float:
        """Freeze the end-to-end wall time (idempotent); returns it."""
        with self._lock:
            if self._total is None:
                self._total = time.perf_counter() - self.started
            return self._total

    @property
    def total_seconds(self) -> float:
        with self._lock:
            if self._total is not None:
                return self._total
        return time.perf_counter() - self.started

    def stages(self) -> dict[str, float]:
        """Stage → seconds (same-name spans sum, e.g. after a re-route)."""
        with self._lock:
            spans = list(self.spans)
        out: dict[str, float] = {}
        for span in spans:
            out[span.stage] = out.get(span.stage, 0.0) + span.seconds
        return out

    def as_dict(self) -> dict:
        """JSON-ready view (the slow-request log line's payload)."""
        return {
            "trace_id": self.trace_id,
            "total_ms": self.total_seconds * 1e3,
            "stages_ms": {stage: seconds * 1e3
                          for stage, seconds in self.stages().items()},
            **{str(k): str(v) for k, v in self.labels.items()},
        }

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id!r}, "
                f"stages={list(self.stages())}, "
                f"total_ms={self.total_seconds * 1e3:.2f})")


_CURRENT: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("repro_trace", default=None))


@contextmanager
def use_trace(trace: TraceContext | None):
    """Install ``trace`` as the current trace for the ``with`` body."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


@contextmanager
def stage_span(stage: str):
    """Time the ``with`` body as one stage of the current trace.

    Nested spans compose dotted names (``serve`` > ``operator`` becomes
    ``serve.operator``).
    """
    trace = _CURRENT.get()
    if trace is None:
        yield
        return
    trace._stack.append(stage)
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        trace._stack.pop()
        trace.add_stage(".".join((*trace._stack, stage)), elapsed)


class TraceLog:
    """Bounded ring of completed traces.

    ``observe`` finishes the trace and keeps it in a ``capacity``-deep
    ring; ``slowest(n)`` reads it back, worst first.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise TelemetryError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[TraceContext] = deque(maxlen=capacity)

    def observe(self, trace: TraceContext) -> None:
        trace.finish()
        with self._lock:
            self._ring.append(trace)

    def slowest(self, n: int = 10) -> list[TraceContext]:
        """The ``n`` slowest retained traces, slowest first."""
        with self._lock:
            traces = list(self._ring)
        traces.sort(key=lambda trace: trace.total_seconds, reverse=True)
        return traces[:max(n, 0)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return (f"TraceLog(capacity={self.capacity}, "
                f"retained={len(self)})")
