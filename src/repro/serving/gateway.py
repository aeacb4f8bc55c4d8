"""Async network gateway: the fleet's TCP front door.

:class:`ServingGateway` runs an ``asyncio`` server (stdlib only) on a
dedicated thread and forwards decoded
:mod:`~repro.serving.protocol` requests into a
:class:`~repro.serving.fleet.ServingFleet`.  On top of plain forwarding
it layers the two things a network tier owes its operators:

- **Admission control / load shedding.**  Every admitted request holds a
  token in a :class:`~repro.serving.queue.BoundedRequestQueue`
  (``overflow="reject"``) — the hard in-flight ceiling — while an
  optional :class:`WatermarkShed` sheds softly before the ceiling: it
  starts refusing work when queue depth crosses a high watermark and
  keeps refusing (hysteresis) until it falls back below the low one.
  A shed response is retriable and carries a ``retry_after_ms`` hint.
- **Queue-driven autoscaling.**  A background loop samples queue depth
  and the fleet's rolling p95, asks an optional :class:`QueueDepthScale`
  for a target replica count, and applies it through
  :meth:`ServingFleet.scale_to` — bounded by min/max replicas and a
  cooldown so one burst cannot thrash the pool.

The event loop thread only does protocol work; serving happens in the
fleet's replica processes.  Completions hop back onto the loop via
:meth:`ServingFuture.add_done_callback` +
``loop.call_soon_threadsafe`` — no waiter thread per in-flight request.
Plain HTTP ``GET /healthz``, ``GET /stats``, and ``GET /metrics``
(Prometheus text exposition over the gateway's and the fleet's
registries) are answered too (the first bytes disambiguate: framed
requests start with the protocol magic), so a load balancer or a
Prometheus scraper can probe the gateway without speaking the framed
protocol.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.errors import ServingError
from repro.serving import protocol
from repro.serving.fleet import ServingFleet
from repro.serving.queue import (BoundedRequestQueue, QueueClosedError,
                                 QueueFullError)
from repro.telemetry import (
    MetricsRegistry,
    TraceContext,
    TraceLog,
    render_exposition,
)

__all__ = ["ServingGateway", "WatermarkShed", "QueueDepthScale"]


# ----------------------------------------------------------------------
# Shed policies (admission control)
# ----------------------------------------------------------------------
class WatermarkShed:
    """Shed above a high watermark, recover below a low one.

    Watermarks are fractions of the gateway's in-flight capacity.  The
    hysteresis band prevents flapping right at the threshold: once
    shedding starts it continues until depth falls to the low watermark.
    The retry hint grows with the overload so heavier congestion pushes
    retries further out.  ``admit`` returns ``None`` to admit, or the
    retry-after hint in milliseconds to shed; it runs on the gateway's
    event-loop thread only, so the hysteresis state needs no lock.
    """

    name = "watermark"

    def __init__(self, high: float = 0.75, low: float = 0.5,
                 retry_after_ms: float = 50.0) -> None:
        if not 0.0 < high <= 1.0:
            raise ServingError(
                f"high watermark must be in (0, 1], got {high}")
        if not 0.0 <= low <= high:
            raise ServingError(
                f"low watermark must be in [0, high={high}], got {low}")
        if retry_after_ms <= 0:
            raise ServingError(
                f"retry_after_ms must be positive, got {retry_after_ms}")
        self.high = high
        self.low = low
        self.retry_after_ms = retry_after_ms
        self._shedding = False

    def admit(self, *, queue_depth: int, capacity: int) -> float | None:
        fill = queue_depth / capacity if capacity else 1.0
        if self._shedding:
            if fill <= self.low:
                self._shedding = False
        elif fill >= self.high:
            self._shedding = True
        if not self._shedding:
            return None
        return self.retry_after_ms * max(1.0, fill / self.high)

    def state(self) -> dict:
        """JSON-ready view of the hysteresis state (``GET /stats``)."""
        return {"shedding": self._shedding, "high": self.high,
                "low": self.low}

    def __repr__(self) -> str:
        return (f"WatermarkShed(high={self.high}, low={self.low}, "
                f"retry_after_ms={self.retry_after_ms})")


# ----------------------------------------------------------------------
# Scale policies (autoscaling)
# ----------------------------------------------------------------------
class QueueDepthScale:
    """Scale on per-replica backlog, with an optional p95 trip wire.

    Grow one replica when the backlog per replica reaches
    ``up_backlog`` (or the rolling p95 crosses ``p95_up_ms``), shrink
    one when it falls to ``down_backlog`` — always one step at a time,
    inside ``[min_replicas, max_replicas]``; the gateway's cooldown
    spaces the steps out.  ``target`` runs on the autoscaler thread only.
    """

    name = "queue-depth"

    def __init__(self, min_replicas: int = 1, max_replicas: int = 4,
                 up_backlog: float = 4.0, down_backlog: float = 1.0,
                 p95_up_ms: float | None = None) -> None:
        if min_replicas <= 0:
            raise ServingError(
                f"min_replicas must be positive, got {min_replicas}")
        if max_replicas < min_replicas:
            raise ServingError(
                f"max_replicas ({max_replicas}) must be >= min_replicas "
                f"({min_replicas})")
        if down_backlog > up_backlog:
            raise ServingError(
                f"down_backlog ({down_backlog}) must be <= up_backlog "
                f"({up_backlog})")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.up_backlog = up_backlog
        self.down_backlog = down_backlog
        self.p95_up_ms = p95_up_ms

    def target(self, *, replicas: int, queue_depth: int,
               p95_ms: float | None) -> int:
        backlog = queue_depth / max(replicas, 1)
        hot = backlog >= self.up_backlog or (
            self.p95_up_ms is not None and p95_ms is not None
            and p95_ms >= self.p95_up_ms)
        if hot:
            proposed = replicas + 1
        elif backlog <= self.down_backlog:
            proposed = replicas - 1
        else:
            proposed = replicas
        return min(max(proposed, self.min_replicas), self.max_replicas)

    def __repr__(self) -> str:
        return (f"QueueDepthScale(min={self.min_replicas}, "
                f"max={self.max_replicas}, up={self.up_backlog}, "
                f"down={self.down_backlog}, p95_up_ms={self.p95_up_ms})")


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class _Connection:
    """Loop-side state of one framed connection (writer queue + task)."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()


class ServingGateway:
    """Network front-end owning admission control and autoscaling.

    Parameters
    ----------
    fleet:
        The :class:`ServingFleet` requests are forwarded into.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read the bound
        one from :attr:`port` after :meth:`start`).
    shed_policy:
        A :class:`WatermarkShed`, or ``None`` to shed only at the hard
        ``max_inflight`` ceiling.  It holds hysteresis state, so give
        each gateway its own.
    max_inflight:
        Hard ceiling on requests admitted but unanswered — the capacity
        of the admission :class:`BoundedRequestQueue` and the base of the
        shed policy's watermarks.
    scale_policy:
        A :class:`QueueDepthScale`, or ``None`` to disable the autoscaler
        loop entirely.
    autoscale_interval / scale_cooldown:
        Sampling period of the autoscaler and the minimum spacing
        between consecutive scaling actions, in seconds.
    owns_fleet:
        When set (``api.open_gateway``), :meth:`close` also closes the
        fleet.

    Every admitted request carries a :class:`~repro.telemetry.TraceContext`
    (per-stage spans through the fleet, slow-request ring, stage
    breakdown echoed on the reply frame).  The offered/served/shed/errors
    counters and the per-stage histograms live in the gateway's own
    :class:`~repro.telemetry.MetricsRegistry`, ``gateway.metrics``;
    ``GET /metrics`` merges it with the fleet's.
    """

    def __init__(self, fleet: ServingFleet, *, host: str = "127.0.0.1",
                 port: int = 0, shed_policy: WatermarkShed | None = None,
                 max_inflight: int = 256,
                 scale_policy: QueueDepthScale | None = None,
                 autoscale_interval: float = 0.25,
                 scale_cooldown: float = 2.0,
                 owns_fleet: bool = False) -> None:
        if max_inflight <= 0:
            raise ServingError(
                f"max_inflight must be positive, got {max_inflight}")
        if autoscale_interval <= 0:
            raise ServingError(
                f"autoscale_interval must be positive, got "
                f"{autoscale_interval}")
        if scale_cooldown < 0:
            raise ServingError(
                f"scale_cooldown must be non-negative, got {scale_cooldown}")
        self.fleet = fleet
        self.host = host
        self.port = port
        self.shed_policy = shed_policy
        self.scale_policy = scale_policy
        self.max_inflight = max_inflight
        self.autoscale_interval = autoscale_interval
        self.scale_cooldown = scale_cooldown
        self.owns_fleet = owns_fleet
        #: one token per admitted-but-unanswered request; ``reject`` is
        #: the hard backstop behind the soft shed policy
        self._admission = BoundedRequestQueue(capacity=max_inflight,
                                              overflow="reject")
        self.metrics = MetricsRegistry()
        self.trace_log = TraceLog()
        # registry-backed counters, written on the event-loop thread only;
        # offered/served/shed/errors read them back (dict shape unchanged)
        self._requests_total = self.metrics.counter(
            "repro_gateway_requests_total",
            "Serve frames handled by the gateway, by outcome "
            "(offered counts every frame; served/shed/error are terminal).",
            ("outcome",))
        self._shed_detail = self.metrics.counter(
            "repro_gateway_shed_total",
            "Requests shed, by deciding policy (the configured shed "
            "policy, 'draining', or the hard 'capacity' backstop).",
            ("policy",))
        self._scale_events_total = self.metrics.counter(
            "repro_gateway_scale_events_total",
            "Autoscaler actions applied, by direction.", ("action",))
        self.metrics.gauge(
            "repro_gateway_inflight",
            "Requests admitted but not yet answered.",
            callback=lambda: len(self._admission))
        self.metrics.gauge(
            "repro_gateway_max_inflight",
            "Hard ceiling of the admission queue.",
            callback=lambda: self.max_inflight)
        self.metrics.gauge(
            "repro_gateway_draining",
            "1 while the gateway sheds all new work for shutdown.",
            callback=lambda: float(self._draining))
        self._stage_latency = self.metrics.histogram(
            "repro_stage_latency_seconds",
            "Per-stage request latency across the serving layers.",
            ("component", "stage"))
        #: scaling actions: {"t_s", "action", "from", "to", "queue_depth",
        #: "p95_ms"} — the benchmark reads reaction times off this
        self.scale_events: list[dict] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._autoscaler: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._closing = threading.Event()
        self._draining = False
        self._started_at: float | None = None
        self._last_scale = float("-inf")

    # ------------------------------------------------------------------
    # Metrics-backed accounting (the ints these replaced read back the
    # counter family, so stats()'s dict shape is unchanged)
    # ------------------------------------------------------------------
    @property
    def offered(self) -> int:
        return int(self._requests_total.value(outcome="offered"))

    @property
    def served(self) -> int:
        return int(self._requests_total.value(outcome="served"))

    @property
    def shed(self) -> int:
        return int(self._requests_total.value(outcome="shed"))

    @property
    def errors(self) -> int:
        return int(self._requests_total.value(outcome="error"))

    def slowest(self, n: int = 10) -> list[TraceContext]:
        """The ``n`` slowest completed traces, slowest first."""
        return self.trace_log.slowest(n)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        """Bind and serve; returns ``(host, port)`` actually bound."""
        if self._loop is not None:
            raise ServingError("gateway is already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-gateway-loop",
                                        daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._open_server(),
                                                  self._loop)
        try:
            self.host, self.port = future.result(timeout=timeout)
        except Exception:
            self._stop_loop()
            raise
        self._started_at = time.monotonic()
        if self.scale_policy is not None:
            self._autoscaler = threading.Thread(
                target=self._autoscale_forever,
                name="repro-gateway-autoscaler", daemon=True)
            self._autoscaler.start()
        return self.host, self.port

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        # drain the callback queue so late completions don't leak
        self._loop.close()

    async def _open_server(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def started_at(self) -> float | None:
        """``time.monotonic()`` stamp of :meth:`start` — the zero point
        of every ``scale_events`` entry's ``t_s``."""
        return self._started_at

    def close(self, timeout: float = 60.0) -> None:
        """Stop the gateway after answering the admitted requests.

        The drain sequence (also what SIGTERM triggers in the CLI):
        stop accepting connections, shed any new ``serve`` frames from
        connections that are still open, wait until every admitted
        request has been answered and flushed, then tear the loop down.
        With ``owns_fleet`` the fleet is closed too.
        """
        if self._closing.is_set():
            return
        self._draining = True
        self._closing.set()
        if self._autoscaler is not None:
            self._autoscaler.join(timeout=10.0)
        if self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(timeout), self._loop)
            try:
                future.result(timeout=timeout + 10.0)
            except Exception:  # noqa: BLE001 — tear the loop down anyway
                pass
            self._stop_loop()
        self._admission.close()
        if self.owns_fleet:
            self.fleet.close()

    async def _shutdown(self, timeout: float) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + timeout
        while len(self._admission) and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            connection.outbox.put_nowait(None)
        # the sentinel makes each writer flush and close its transport,
        # which wakes the paired reader; wait (bounded) for both tasks to
        # finish so stopping the loop does not destroy them mid-await
        deadline = self._loop.time() + 5.0
        while self._connections and self._loop.time() < deadline:
            await asyncio.sleep(0.01)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServingGateway":
        if self._loop is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.readexactly(len(protocol.MAGIC))
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        if first != protocol.MAGIC:
            await self._handle_http(first, reader, writer)
            return
        connection = _Connection(writer)
        self._connections.add(connection)
        writer_task = asyncio.ensure_future(self._write_forever(connection))
        try:
            carried = first
            while True:
                prefix = carried + await reader.readexactly(
                    protocol._PREFIX.size - len(carried))
                header_len, payload_len = protocol.decode_prefix(prefix)
                header = protocol.parse_header(
                    await reader.readexactly(header_len))
                payload = (await reader.readexactly(payload_len)
                           if payload_len else b"")
                self._handle_frame(connection, header, payload)
                carried = await reader.readexactly(len(protocol.MAGIC))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # client went away (clean EOF included)
        except protocol.ProtocolError as error:
            connection.outbox.put_nowait(protocol.encode_reply(
                None, "error", error=str(error)))
        finally:
            connection.outbox.put_nowait(None)
            await writer_task
            self._connections.discard(connection)

    async def _write_forever(self, connection: _Connection) -> None:
        """Flush reply frames in arrival order; ``None`` ends the task."""
        writer = connection.writer
        try:
            while True:
                frame = await connection.outbox.get()
                if frame is None:
                    break
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Frame handling (event-loop thread)
    # ------------------------------------------------------------------
    def _handle_frame(self, connection: _Connection, header: dict,
                      payload: bytes) -> None:
        op = header.get("op")
        request_id = header.get("id")
        if op == "ping":
            connection.outbox.put_nowait(
                protocol.encode_reply(request_id, "pong"))
        elif op == "stats":
            connection.outbox.put_nowait(protocol.encode_frame(
                {"op": "reply", "id": request_id, "status": "stats",
                 "stats": self.stats()}))
        elif op == "serve":
            self._handle_serve(connection, header, payload)
        else:
            connection.outbox.put_nowait(protocol.encode_reply(
                request_id, "error", error=f"unknown operation {op!r}"))

    def _handle_serve(self, connection: _Connection, header: dict,
                      payload: bytes) -> None:
        admitted_at = time.perf_counter()
        self._requests_total.inc(outcome="offered")
        try:
            request = protocol.decode_serve_request(header, payload)
        except protocol.ProtocolError as error:
            self._requests_total.inc(outcome="error")
            connection.outbox.put_nowait(protocol.encode_reply(
                header.get("id") if isinstance(header.get("id"), int)
                else None, "error", error=str(error)))
            return
        if self._draining:
            self._shed_reply(connection, request, "gateway is draining",
                             retry_after_ms=None, policy="draining")
            return
        hint = None if self.shed_policy is None else self.shed_policy.admit(
            queue_depth=len(self._admission), capacity=self.max_inflight)
        if hint is not None:
            self._shed_reply(
                connection, request,
                f"shed by {self.shed_policy.name} policy "
                f"({len(self._admission)}/{self.max_inflight} in flight)",
                retry_after_ms=hint, policy=self.shed_policy.name)
            return
        try:
            self._admission.put(request.request_id)
        except (QueueFullError, QueueClosedError) as error:
            self._shed_reply(connection, request, str(error),
                             retry_after_ms=self._fallback_retry_ms(),
                             policy="capacity")
            return
        # the admission span covers decode + shed decision + the queue
        # token; the fleet adds dispatch/serve/collect, and _complete
        # closes with the reply span
        trace = TraceContext(
            trace_id=request.task.trace_id,
            labels={"mode": request.task.mode or self.fleet.batch_mode,
                    "task": request.task.task})
        admission = time.perf_counter() - admitted_at
        trace.add_stage("admission", admission)
        self._stage_latency.observe(
            admission, component="gateway", stage="admission")
        try:
            future = self.fleet.submit(request.task, trace=trace)
        except ServingError as error:
            self._admission.get_nowait()
            self._requests_total.inc(outcome="error")
            connection.outbox.put_nowait(protocol.encode_reply(
                request.request_id, "error", error=str(error)))
            return
        loop = self._loop
        future.add_done_callback(lambda done: loop.call_soon_threadsafe(
            self._complete, connection, request, done))

    def _shed_reply(self, connection: _Connection,
                    request: "protocol.ServeRequest", reason: str,
                    retry_after_ms: float | None,
                    policy: str = "unknown") -> None:
        self._requests_total.inc(outcome="shed")
        self._shed_detail.inc(policy=policy)
        connection.outbox.put_nowait(protocol.encode_reply(
            request.request_id, "shed", error=reason,
            retry_after_ms=retry_after_ms))

    def _fallback_retry_ms(self) -> float:
        """Retry hint when the hard cap (not the policy) sheds."""
        p50 = self.fleet.stats().get("latency_p50_ms")
        return max(p50 or 0.0, 50.0)

    def _complete(self, connection: _Connection,
                  request: "protocol.ServeRequest", future) -> None:
        """A fleet future resolved — encode and enqueue the reply."""
        self._admission.get_nowait()
        trace = future.trace
        try:
            logits = future.result(timeout=0)
        except ServingError as error:
            self._requests_total.inc(outcome="error")
            connection.outbox.put_nowait(protocol.encode_reply(
                request.request_id, "error", error=str(error),
                replica_id=future.replica_id, attempts=future.attempts))
            self.trace_log.observe(trace)
            return
        self._requests_total.inc(outcome="served")
        reply_started = time.perf_counter()
        # the wire breakdown carries the stages known before the reply
        # is encoded; the reply span itself lands in the histogram and
        # the retained trace
        stages_ms = {stage: seconds * 1e3
                     for stage, seconds in trace.stages().items()}
        connection.outbox.put_nowait(protocol.encode_reply(
            request.request_id, "ok", logits=logits,
            replica_id=future.replica_id, attempts=future.attempts,
            compute_ms=future.record.compute_seconds * 1e3,
            encoding=request.encoding,
            trace_id=trace.trace_id, stages=stages_ms))
        reply = time.perf_counter() - reply_started
        trace.add_stage("reply", reply)
        self._stage_latency.observe(reply, component="gateway", stage="reply")
        self.trace_log.observe(trace)

    # ------------------------------------------------------------------
    # HTTP probes
    # ------------------------------------------------------------------
    async def _handle_http(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            rest = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=5.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                asyncio.LimitOverrunError, ConnectionError):
            rest = b"\r\n\r\n"
        request_line = (first + rest).split(b"\r\n", 1)[0]
        parts = request_line.decode("latin-1", "replace").split()
        path = parts[1] if len(parts) >= 2 else "/"
        content_type = "application/json"
        if path == "/metrics":
            status = "200 OK"
            raw = self.render_metrics().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            if path in ("/healthz", "/health"):
                status, body = "200 OK", {
                    "status": "draining" if self._draining else "ok",
                    "replicas": self.fleet.num_replicas}
            elif path == "/stats":
                status, body = "200 OK", self.stats()
            else:
                status, body = ("404 Not Found",
                                {"error": f"no route {path!r}"})
            raw = json.dumps(body).encode("utf-8")
        writer.write((f"HTTP/1.1 {status}\r\n"
                      f"Content-Type: {content_type}\r\n"
                      f"Content-Length: {len(raw)}\r\n"
                      "Connection: close\r\n\r\n").encode("latin-1") + raw)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Autoscaler (dedicated thread)
    # ------------------------------------------------------------------
    def _autoscale_forever(self) -> None:
        while not self._closing.wait(self.autoscale_interval):
            try:
                self._autoscale_once()
            except ServingError:
                if self._closing.is_set():
                    return
                # a failed scaling action must not kill the loop; the
                # next sample retries from whatever size the fleet holds

    def _autoscale_once(self) -> None:
        depth = len(self._admission)
        p95 = self.fleet.stats().get("latency_p95_ms")
        current = self.fleet.num_replicas
        target = self.scale_policy.target(replicas=current,
                                          queue_depth=depth, p95_ms=p95)
        if target == current or target <= 0:
            return
        now = time.monotonic()
        if now - self._last_scale < self.scale_cooldown:
            return
        self._last_scale = now
        # wait=False: capacity joins when the slot reports ready; the
        # sampling loop must not stall on a multi-second cold start
        self.fleet.scale_to(target, wait=False)
        action = "up" if target > current else "down"
        self._scale_events_total.inc(action=action)
        self.scale_events.append({
            "t_s": now - (self._started_at or now),
            "action": action,
            "from": current, "to": target,
            "queue_depth": depth, "p95_ms": p95})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The ``GET /metrics`` page: gateway + fleet registries merged
        into one Prometheus text exposition (format 0.0.4)."""
        return render_exposition(self.metrics, self.fleet.metrics)

    def stats(self) -> dict:
        """JSON-ready gateway accounting (admission, scaling, fleet)."""
        return {
            "host": self.host,
            "port": self.port,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "errors": self.errors,
            "inflight": len(self._admission),
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "shed_policy": (None if self.shed_policy is None
                            else self.shed_policy.name),
            "shed_policy_state": ({} if self.shed_policy is None
                                  else self.shed_policy.state()),
            "scale_policy": (None if self.scale_policy is None
                             else self.scale_policy.name),
            "scale_events": list(self.scale_events),
            "slowest": [trace.as_dict()
                        for trace in self.trace_log.slowest(5)],
            "fleet": self.fleet.stats(),
        }

    def __repr__(self) -> str:
        shed = None if self.shed_policy is None else self.shed_policy.name
        scale = None if self.scale_policy is None else self.scale_policy.name
        return (f"ServingGateway(host={self.host!r}, port={self.port}, "
                f"shed={shed!r}, scale={scale!r}, "
                f"inflight={len(self._admission)}/{self.max_inflight})")
