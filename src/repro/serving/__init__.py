"""Online serving runtime: condense offline once, serve traffic forever.

This package turns the one-shot :mod:`repro.inference` engine into a
long-lived service — the deployment shape the paper's Eq. (11) exists
for.  The pieces:

- :mod:`~repro.serving.prepared` — request-invariant cache with an exact
  (bitwise-parity) fast attach+normalize and a cached-propagation path;
- :mod:`~repro.serving.embeddings` — the task-typed request surface:
  :class:`~repro.serving.embeddings.ServeTask` (``predict`` | ``embed``
  | ``link_score`` | ``topk``), the
  :data:`~repro.serving.embeddings.TASKS` executors, the link-prediction
  scorer/holdout, and the top-k
  :class:`~repro.serving.embeddings.EmbeddingIndex`;
- :mod:`~repro.serving.runtime` — micro-batching runtime with futures
  and its :class:`~repro.serving.runtime.MicroBatchScheduler`;
- :mod:`~repro.serving.queue` — bounded admission with backpressure;
- :mod:`~repro.serving.workload` — Poisson arrivals and request replay;
- :mod:`~repro.serving.stats` — p50/p95/p99 latency accounting;
- :mod:`~repro.serving.fleet` — the multi-replica process fleet: replica
  pool over a shared memory-mapped artifact, round-robin dispatch,
  health-checked failover, zero-downtime hot swaps;
- :mod:`~repro.serving.protocol` — the gateway's length-prefixed wire
  protocol (JSON or binary payloads) and the stdlib-socket client;
- :mod:`~repro.serving.gateway` — the asyncio TCP/HTTP front door:
  admission control with watermark load shedding, queue-driven replica
  autoscaling, and the Prometheus-scrapeable ``GET /metrics`` page.

The fleet and the gateway report into :mod:`repro.telemetry`:
registry-backed counters and callback gauges, the shared
``repro_stage_latency_seconds`` histogram, and per-request
:class:`~repro.telemetry.TraceContext` stage spans (see
``docs/serving.md``, "Observability").  The in-process runtime's one
accounting is ``runtime.stats()``.

Entry points: ``repro.api.open_runtime(bundle)`` for a static deployment,
``repro.api.open_stream(bundle)`` for one that ingests
:class:`~repro.graph.stream.GraphDelta` traffic while serving,
``repro.api.open_fleet(artifact)`` for a horizontally-scaled replica
fleet, and ``repro.api.open_gateway(artifact)`` for that fleet behind
the network gateway.
"""

from repro.serving.prepared import DeltaRefreshReport, PreparedDeployment
from repro.serving.embeddings import (
    SCORERS,
    EmbeddingIndex,
    ServeTask,
    auc_score,
    evaluate_link_holdout,
    holdout_split,
    sample_link_pairs,
    score_pairs,
    tasked_requests,
)
from repro.serving.queue import BoundedRequestQueue, QueueFullError
from repro.serving.runtime import (
    IngestFuture,
    MicroBatchScheduler,
    Request,
    ServingFuture,
    ServingRuntime,
    merge_requests,
)
from repro.serving.stats import LatencyAccounting, RequestRecord, RuntimeStats
from repro.serving.workload import (
    PoissonWorkload,
    replay,
    replay_stream,
    split_requests,
)
from repro.serving.fleet import (
    FleetFuture,
    ReplicaPool,
    ServingFleet,
    replay_fleet,
)
from repro.serving.protocol import GatewayClient, GatewayReply, ProtocolError
from repro.serving.gateway import (
    QueueDepthScale,
    ServingGateway,
    WatermarkShed,
)

__all__ = [
    "PreparedDeployment", "DeltaRefreshReport",
    "ServeTask", "EmbeddingIndex", "SCORERS",
    "score_pairs", "auc_score", "holdout_split", "sample_link_pairs",
    "evaluate_link_holdout", "tasked_requests",
    "BoundedRequestQueue", "QueueFullError",
    "ServingRuntime", "ServingFuture", "IngestFuture", "Request",
    "merge_requests",
    "MicroBatchScheduler",
    "LatencyAccounting", "RequestRecord", "RuntimeStats",
    "PoissonWorkload", "split_requests", "replay", "replay_stream",
    "ServingFleet", "ReplicaPool", "FleetFuture", "replay_fleet",
    "GatewayClient", "GatewayReply", "ProtocolError",
    "ServingGateway", "WatermarkShed", "QueueDepthScale",
]
