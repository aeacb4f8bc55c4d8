"""Observability of the networked serving tiers: metrics plus tracing.

The gateway and the fleet measure every request they handle, and
``GET /metrics``, ``GET /stats``, ``repro top`` and the reply frame's
``stages`` read what they measure.  The in-process
:class:`~repro.serving.runtime.ServingRuntime` keeps only its exact
``stats()`` accounting.  This package is the stdlib-only substrate:

- :mod:`~repro.telemetry.metrics` — thread-safe counters, callback
  gauges and fixed-bucket histograms with labels, rendered in Prometheus
  text exposition format (the gateway's ``GET /metrics``) and parsed
  back (``repro top``, CI smoke assertions);
- :mod:`~repro.telemetry.tracing` — per-request
  :class:`TraceContext` stage spans (admission / dispatch / serve /
  collect / reply), contextvar-carried into the replica's
  ``prepared.serve_task`` for its ``serve.*`` sub-spans, and a bounded
  :class:`TraceLog` ring of completed traces.
"""

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    histogram_quantile,
    parse_exposition,
    render_exposition,
)
from repro.telemetry.tracing import (
    StageSpan,
    TraceContext,
    TraceLog,
    new_trace_id,
    stage_span,
    use_trace,
)

__all__ = [
    "TelemetryError",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_exposition", "parse_exposition", "histogram_quantile",
    "StageSpan", "TraceContext", "TraceLog",
    "new_trace_id", "use_trace", "stage_span",
]
