"""Horizontally-scaled serving: a fleet of replica processes.

One :class:`~repro.serving.runtime.ServingRuntime` owns one
:class:`~repro.serving.prepared.PreparedDeployment` in one process — the
single-host deployment shape.  This module is the fleet shape behind the
ROADMAP's "heavy traffic" north star: ``N`` replica *processes*, each
holding a prepared deployment built over the same memory-mapped artifact
(so the big arrays live once in the host's page cache, not ``N`` times),
taking requests round-robin.

:class:`ServingFleet` is the whole of it.  ``submit`` returns a
:class:`FleetFuture`; ``swap(artifact)`` rolls a new artifact across the
fleet with zero dropped traffic; ``scale_to`` grows or drains slots.
Each replica takes requests on its own inbox queue and replies on its
own pipe, which only that worker writes: a worker killed mid-reply tears
its own pipe and nothing another replica uses.  One collector thread
sleeps in :func:`multiprocessing.connection.wait` on every reply pipe,
every worker's exit sentinel and a wake pipe.  It resolves futures as
replies arrive; when a worker exits unannounced it re-routes the
worker's in-flight requests to survivors and respawns the slot.  Every
wait in the fleet (ready, drain, swap, scale) sleeps on one condition
that the collector notifies, so no part of the fleet polls a clock.

Every request is served as its own batch by exactly one replica, so the
returned results are bitwise identical to
``PreparedDeployment.serve_task`` on the same request — which replica
answers (and every failover re-route) is invisible in the outputs.
Requests are task-typed :class:`~repro.serving.embeddings.ServeTask`
objects (``predict`` | ``embed`` | ``link_score`` | ``topk``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from repro.errors import ServingError
from repro.serving.embeddings import ServeTask
from repro.serving.runtime import ServingFuture
from repro.serving.stats import RequestRecord, latency_percentiles
from repro.serving.workload import settle
from repro.telemetry import (
    MetricsRegistry,
    TraceContext,
    TraceLog,
    use_trace,
)

__all__ = ["ServingFleet", "FleetFuture", "replay_fleet"]

#: Dispatch attempts per request before its future fails (failover
#: re-routes count against them).
_MAX_DISPATCH_ATTEMPTS = 3
#: Respawns a slot that keeps dying at startup gets before it is given up.
_MAX_SPAWN_RETRIES = 2
#: What ``recv`` raises on a reply pipe its worker tore down mid-message.
_TORN = (EOFError, OSError, pickle.UnpicklingError)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _replica_worker(artifact: str, batch_mode: str, inbox, outbox) -> None:
    """Load the artifact, announce readiness, then serve until ``stop``.

    Runs in a child process and replies on ``outbox``, the write end of
    its own pipe.  The bundle is loaded *here*, memory-mapped: every
    replica maps the same file, sharing one page-cache copy of the stored
    arrays across the fleet (compressed members load eagerly).
    """
    started = time.perf_counter()
    try:
        from repro.api import DeploymentBundle
        prepared = DeploymentBundle.load(artifact, mmap=True).prepare()
        outbox.send(("ready", time.perf_counter() - started))
    except BaseException as error:  # noqa: BLE001 — reported to the fleet
        outbox.send(("fatal", f"{type(error).__name__}: {error}"))
        return
    while True:
        message = inbox.get()
        if message[0] == "stop":
            return
        _, request_id, task = message
        # dequeue timestamp: perf_counter is CLOCK_MONOTONIC on Linux, so
        # the parent can subtract its own submit stamp to get the true
        # dispatch (IPC + inbox wait) span for this request
        t_start = time.perf_counter()
        try:
            trace = TraceContext(trace_id=f"replica-{request_id}")
            with use_trace(trace):
                result, seconds, _ = prepared.serve_task(
                    task, batch_mode=task.mode or batch_mode)
            spans = tuple((span.stage, span.seconds) for span in trace.spans)
            outbox.send(("done", request_id, result, seconds, t_start, spans))
        except Exception as error:  # noqa: BLE001 — forwarded to the future
            outbox.send(("error", request_id,
                         f"{type(error).__name__}: {error}"))


# ----------------------------------------------------------------------
# Futures and bookkeeping
# ----------------------------------------------------------------------
class FleetFuture(ServingFuture):
    """Completion handle for one fleet request.

    Extends :class:`~repro.serving.runtime.ServingFuture` with the
    replica that answered and the number of dispatch attempts (1 unless
    failover re-routed the request).
    """

    def __init__(self) -> None:
        super().__init__()
        self.replica_id: int | None = None
        self.attempts: int = 0
        #: The request's :class:`~repro.telemetry.TraceContext` —
        #: complete once the future resolves.
        self.trace: TraceContext | None = None


@dataclass
class _Pending:
    """Parent-side copy of an in-flight request (the failover source)."""

    request_id: int
    task: ServeTask
    future: FleetFuture
    submitted_at: float
    trace: TraceContext
    owns_trace: bool  # fleet (not a gateway) finishes + logs it
    attempts: int = 0


@dataclass
class _Replica:
    """One replica slot: a worker process, its two channels, its state."""

    replica_id: int
    generation: int
    process: object
    inbox: object  # multiprocessing.Queue: parent -> worker
    replies: object  # read end of the worker's reply pipe
    state: str = "starting"  # starting|ready|draining|dead
    inflight: set = field(default_factory=set)
    cold_start_seconds: float | None = None
    last_error: str | None = None
    spawn_failures: int = 0


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class ServingFleet:
    """Serve requests across replica processes.

    Parameters
    ----------
    artifact:
        Path to a :class:`repro.api.DeploymentBundle` ``.npz``.  Save it
        with ``layout="mmap"`` so the replicas share the arrays through
        the page cache (every replica memory-maps it; compressed members
        just load eagerly per replica).
    replicas:
        Number of worker processes; requests go to the ready ones in
        turn (round-robin, in id order).
    batch_mode:
        ``"graph"`` or ``"node"`` — fixed per fleet, like a runtime.

    Every request carries a :class:`~repro.telemetry.TraceContext`
    (per-stage spans, slow-request ring) and feeds the per-stage latency
    histograms of the fleet's :class:`~repro.telemetry.MetricsRegistry`,
    ``fleet.metrics``.

    The constructor returns once every replica is ready, or raises after
    two minutes.  A request fails after three dispatch attempts (failover
    re-routes count against them); :meth:`stats` reads its latency
    percentiles off the last 4096 completed requests.  Workers start by
    ``fork`` where the platform has it, else ``spawn``.
    """

    def __init__(self, artifact: str | Path, replicas: int = 2, *,
                 batch_mode: str = "node") -> None:
        if replicas <= 0:
            raise ServingError(f"fleet size must be positive, got {replicas}")
        if batch_mode not in ("graph", "node"):
            raise ServingError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        self.artifact = Path(artifact)  # guarded by _lock
        self.batch_mode = batch_mode
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._lock = threading.RLock()
        #: notified whenever a replica, a request or the fleet changes
        #: state; every wait in the fleet sleeps on it
        self._changed = threading.Condition(self._lock)
        self._replicas: dict[int, _Replica] = {}  # guarded by _lock
        self._respawns = 0  # guarded by _lock
        self._next_replica = 0  # guarded by _lock; round-robin over ready ids
        self._pending: dict[int, _Pending] = {}  # guarded by _lock
        self._orphans: deque[_Pending] = deque()  # guarded by _lock
        #: reply pipes of retired replicas, closed by the collector
        self._retired: list = []  # guarded by _lock
        self._request_ids = iter(range(1, 2**63))
        self._closing = False  # guarded by _lock
        self._latencies: deque[float] = deque(maxlen=4096)  # guarded by _lock
        #: Set by ``api.open_fleet`` when it persisted a temp artifact for
        #: an in-memory bundle; ``close`` then removes that file.
        self.owns_artifact = False
        self._opened_artifact = self.artifact
        self.metrics = MetricsRegistry()
        self.trace_log = TraceLog()
        # the volume counters are registry-backed; completed/failed/
        # rerouted read them back
        self._requests_total = self.metrics.counter(
            "repro_fleet_requests_total",
            "Requests resolved by the fleet, by terminal outcome.",
            ("outcome",))
        self._replica_served = self.metrics.counter(
            "repro_fleet_replica_served_total",
            "Requests served, per replica slot.", ("replica",))
        self._replica_died = self.metrics.counter(
            "repro_fleet_replica_died_total",
            "Unannounced replica process deaths, per slot.", ("replica",))
        self._replica_respawned = self.metrics.counter(
            "repro_fleet_replica_respawned_total",
            "Replica process respawns (failover or swap), per slot.",
            ("replica",))
        self.metrics.gauge(
            "repro_fleet_queue_depth",
            "Requests admitted by the fleet but not yet resolved.",
            callback=self.queue_depth)
        self.metrics.gauge(
            "repro_fleet_replicas", "Replica slots in the fleet.",
            callback=lambda: self.num_replicas)
        self._stage_latency = self.metrics.histogram(
            "repro_stage_latency_seconds",
            "Per-stage request latency across the serving layers.",
            ("component", "stage"))
        # the collector sleeps until a reply, a worker exit, or a byte on
        # this pipe: spawning, retiring a replica and close() write one
        self._wake_reader, self._wake_writer = self._context.Pipe(
            duplex=False)
        for replica_id in range(replicas):
            self._replicas[replica_id] = self._spawn(replica_id, 0)
        self._collector = threading.Thread(target=self._collect_forever,
                                           name="repro-fleet-collector",
                                           daemon=True)
        self._collector.start()
        self.wait_ready()

    # ------------------------------------------------------------------
    # Metrics-backed accounting (the ints these replaced read back the
    # counter families, so stats()'s dict shape is unchanged)
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return int(self._requests_total.value(outcome="completed"))

    @property
    def failed(self) -> int:
        return int(self._requests_total.value(outcome="failed"))

    @property
    def rerouted(self) -> int:
        return int(self._requests_total.value(outcome="rerouted"))

    def slowest(self, n: int = 10) -> list[TraceContext]:
        """The ``n`` slowest fleet-owned traces, slowest first."""
        return self.trace_log.slowest(n)

    # ------------------------------------------------------------------
    # Replica slots (every helper here: caller holds the lock)
    # ------------------------------------------------------------------
    def _spawn(self, replica_id: int, generation: int) -> _Replica:
        """Start one worker on ``self.artifact`` (caller holds the lock)."""
        inbox = self._context.Queue()
        replies, outbox = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_replica_worker,
            args=(str(self.artifact), self.batch_mode, inbox, outbox),
            name=f"repro-replica-{replica_id}", daemon=True)
        process.start()
        # the worker is now the pipe's only writer: its death reads as EOF
        outbox.close()
        self._wake()
        return _Replica(replica_id=replica_id, generation=generation,
                        process=process, inbox=inbox, replies=replies)

    def _respawn(self, old: _Replica) -> None:
        """Refill ``old``'s slot with a fresh worker (caller holds the lock)."""
        replica = self._spawn(old.replica_id, old.generation + 1)
        replica.spawn_failures = old.spawn_failures
        self._replicas[old.replica_id] = replica
        self._respawns += 1
        self._replica_respawned.inc(replica=str(old.replica_id))

    def _retire(self, replica: _Replica) -> None:
        """Mark a replica dead and release its channels (caller holds the lock).

        The inbox's feeder thread would block interpreter exit flushing
        requests no process will read (they were re-dispatched from the
        parent-side copies), so it is cancelled.  The reply pipe may sit
        in the collector's current ``wait``, so the collector closes it.
        """
        replica.state = "dead"
        try:
            replica.inbox.cancel_join_thread()
            replica.inbox.close()
        except (OSError, ValueError):
            pass
        self._retired.append(replica.replies)
        self._wake()

    def _stop(self, replica: _Replica, join_timeout: float = 5.0) -> None:
        """Graceful stop: the worker exits after its current request
        (caller holds the lock)."""
        try:
            replica.inbox.put(("stop",))
        except (OSError, ValueError):
            pass  # queue already torn down with a dead process
        replica.process.join(timeout=join_timeout)
        if replica.process.is_alive():
            replica.process.terminate()
            replica.process.join(timeout=join_timeout)
        self._retire(replica)

    def _drain_and_stop(self, replica_id: int, timeout: float) -> None:
        """Take a slot out of rotation, let its in-flight requests finish,
        then stop its worker (caller holds the lock)."""
        replica = self._replicas[replica_id]
        if replica.state == "ready":
            replica.state = "draining"
        # read the slot afresh: a mid-drain death respawns it, and the
        # respawned worker's in-flight set starts empty
        self._await(lambda: not self._replicas[replica_id].inflight,
                    timeout, f"replica {replica_id} did not drain")
        self._stop(self._replicas[replica_id])

    def _slot_ready(self, replica_id: int) -> bool:
        """Whether a slot serves; raises once it has exhausted its
        respawns (caller holds the lock)."""
        replica = self._replicas[replica_id]
        if (replica.state == "dead"
                and replica.spawn_failures > _MAX_SPAWN_RETRIES):
            detail = replica.last_error or "worker exited at startup"
            raise ServingError(
                f"replica {replica_id} failed to start on {self.artifact} "
                f"after {_MAX_SPAWN_RETRIES + 1} attempts: {detail}")
        return replica.state == "ready"

    def _await(self, predicate, timeout: float, failure: str) -> None:
        """Sleep on the fleet's condition until ``predicate()`` holds;
        caller holds the lock.  Raises after ``timeout`` seconds, or
        once the fleet closes."""
        if not self._changed.wait_for(
                lambda: predicate() or self._closing, timeout):
            raise ServingError(f"{failure} within {timeout}s")
        if not predicate():
            raise ServingError(f"{failure}: the fleet closed")

    def _wake(self) -> None:
        self._wake_writer.send_bytes(b"")

    # ------------------------------------------------------------------
    # Admission and dispatch
    # ------------------------------------------------------------------
    def submit(self, task: ServeTask, *,
               trace: TraceContext | None = None) -> FleetFuture:
        """Admit one :class:`~repro.serving.embeddings.ServeTask`; returns
        its :class:`FleetFuture`.

        The task carries the batch and every per-request option (task
        type, mode override, top-k depth, link pairs).  A caller that
        already opened a trace (the gateway) passes it via ``trace``
        and stays responsible for finishing it; otherwise the fleet
        stamps its own and completes it into its slow-request ring.
        """
        if not isinstance(task, ServeTask):
            raise ServingError(
                f"submit expects a ServeTask, got {type(task).__name__}")
        owns_trace = trace is None
        if owns_trace:
            trace = TraceContext(labels={"mode": task.mode or self.batch_mode,
                                         "task": task.task})
        entry = _Pending(request_id=next(self._request_ids), task=task,
                         future=FleetFuture(),
                         submitted_at=time.perf_counter(),
                         trace=trace, owns_trace=owns_trace)
        entry.future.trace = trace
        with self._lock:
            # checked under the lock: close() sweeps _pending under it,
            # so a request can never slip in after the sweep and hang
            if self._closing:
                raise ServingError("fleet is closed; cannot submit requests")
            self._pending[entry.request_id] = entry
            self._dispatch(entry)
        return entry.future

    # benchmarks/perf/harness/child.py calls this spelling
    submit_batch = submit

    def _ready_ids(self) -> list[int]:
        return sorted(rid for rid, r in self._replicas.items()
                      if r.state == "ready")

    def _dispatch(self, entry: _Pending) -> None:
        """Route one request (caller holds the lock; never raises).

        With no ready replica — mid-failover or mid-swap on a small fleet
        — the request parks and is re-dispatched the moment a replica
        reports ready, so traffic queues instead of dropping.
        """
        if entry.attempts >= _MAX_DISPATCH_ATTEMPTS:
            self._fail_entry(entry, ServingError(
                f"request failed after {entry.attempts} dispatch attempts "
                "(replicas kept dying mid-serve)"))
            return
        candidates = self._ready_ids()
        if not candidates:
            self._orphans.append(entry)
            return
        replica_id = candidates[self._next_replica % len(candidates)]
        self._next_replica += 1
        replica = self._replicas[replica_id]
        entry.attempts += 1
        replica.inflight.add(entry.request_id)
        replica.inbox.put(("serve", entry.request_id, entry.task))

    def _fail_entry(self, entry: _Pending, error: ServingError) -> None:
        """Terminal failure of one request (caller holds the lock)."""
        self._pending.pop(entry.request_id, None)
        self._requests_total.inc(outcome="failed")
        entry.future._fail(error)
        self._changed.notify_all()

    # ------------------------------------------------------------------
    # Collector: replies, worker exits and failover
    # ------------------------------------------------------------------
    def _collect_forever(self) -> None:
        while True:
            with self._lock:
                for replies in self._retired:
                    replies.close()
                self._retired.clear()
                if self._closing:
                    return
                live = [replica for replica in self._replicas.values()
                        if replica.state != "dead"]
            pipes = {replica.replies: replica for replica in live}
            sentinels = {replica.process.sentinel: replica for replica in live}
            for ready in wait([self._wake_reader, *pipes, *sentinels]):
                if ready is self._wake_reader:
                    while self._wake_reader.poll():
                        self._wake_reader.recv_bytes()
                elif ready in pipes:
                    self._receive(pipes[ready])
                else:
                    self._reap(sentinels[ready])

    def _receive(self, replica: _Replica) -> None:
        """Handle one message from a readable reply pipe."""
        try:
            message = replica.replies.recv()
        except _TORN:
            message = None
        with self._lock:
            if replica.state == "dead":
                return  # retired while the message was in flight
            if message is None:
                # a torn pipe: this worker can answer nothing more, so
                # end it and fail its work over like any other death
                replica.process.kill()
                self._handle_death(replica)
            else:
                self._handle_message(replica, message)
            self._changed.notify_all()

    def _reap(self, replica: _Replica) -> None:
        """A worker exited: settle what it sent, then fail over."""
        with self._lock:
            if replica.state == "dead":
                return  # the fleet stopped it itself
            # poll() is true at EOF too: stop at the first failed recv
            while replica.replies.poll():
                try:
                    message = replica.replies.recv()
                except _TORN:
                    break
                self._handle_message(replica, message)
            self._handle_death(replica)
            self._changed.notify_all()

    def _handle_message(self, replica: _Replica, message: tuple) -> None:
        """Apply one worker message (caller holds the lock)."""
        kind = message[0]
        if kind == "ready":
            replica.cold_start_seconds = message[1]
            replica.spawn_failures = 0
            if replica.state == "starting":
                replica.state = "ready"
            while self._orphans and self._ready_ids():
                self._dispatch(self._orphans.popleft())
        elif kind == "fatal":
            # the worker exits next; its sentinel decides on a respawn
            replica.last_error = message[1]
        else:
            request_id = message[1]
            replica.inflight.discard(request_id)
            entry = self._pending.pop(request_id, None)
            if entry is None:
                return  # already failed, or resolved by a re-route
            entry.future.replica_id = replica.replica_id
            entry.future.attempts = entry.attempts
            if kind == "done":
                self._complete(replica.replica_id, entry, *message[2:])
            else:
                self._requests_total.inc(outcome="failed")
                entry.future._fail(ServingError(
                    f"replica {replica.replica_id} failed the request: "
                    f"{message[2]}"))

    def _complete(self, replica_id: int, entry: _Pending, logits,
                  compute_seconds: float, t_start: float,
                  worker_spans: tuple) -> None:
        """Resolve one served request (caller holds the lock)."""
        wall = time.perf_counter() - entry.submitted_at
        self._latencies.append(wall)
        self._requests_total.inc(outcome="completed")
        # per slot, so a respawned replica keeps its count
        self._replica_served.inc(replica=str(replica_id))
        # the worker's dequeue stamp splits the wall time into the
        # canonical fleet stages (clamped: perf_counter is
        # shared-monotonic, but paranoia is free)
        dispatch = max(t_start - entry.submitted_at, 0.0)
        collect = max(wall - dispatch - compute_seconds, 0.0)
        self._stage_latency.observe(
            dispatch, component="fleet", stage="dispatch")
        self._stage_latency.observe(
            compute_seconds, component="fleet", stage="serve")
        self._stage_latency.observe(
            collect, component="fleet", stage="collect")
        trace = entry.trace
        trace.labels.setdefault("replica", str(replica_id))
        trace.add_stage("dispatch", dispatch)
        trace.add_stage("serve", compute_seconds)
        for stage, seconds in worker_spans:
            trace.add_stage(f"serve.{stage}", seconds)
        trace.add_stage("collect", collect)
        if entry.owns_trace:
            self.trace_log.observe(trace)
        entry.future._resolve(logits, RequestRecord(
            num_nodes=entry.task.num_nodes,
            queue_seconds=max(wall - compute_seconds, 0.0),
            compute_seconds=compute_seconds, batch_size=1))

    def _handle_death(self, replica: _Replica) -> None:
        """A replica died unannounced: reap it, re-route its work, refill
        the slot (caller holds the lock)."""
        replica.process.join()
        failed_start = replica.state == "starting"
        self._replica_died.inc(replica=str(replica.replica_id))
        self._retire(replica)
        stranded = [self._pending[rid] for rid in sorted(replica.inflight)
                    if rid in self._pending]
        replica.inflight.clear()
        if failed_start:
            replica.spawn_failures += 1
        if replica.spawn_failures <= _MAX_SPAWN_RETRIES:
            self._respawn(replica)
        for entry in stranded:
            self._requests_total.inc(outcome="rerouted")
            self._dispatch(entry)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every replica slot is ready (or raise)."""
        try:
            with self._lock:
                # every slot is checked, so an exhausted one raises at once
                self._await(
                    lambda: all([self._slot_ready(rid)
                                 for rid in self._replicas]),
                    timeout, "fleet not ready")
        except BaseException:
            # whatever ends the wait (a failed slot, a timeout, ^C), no
            # replica outlives it
            self.close(drain=False)
            raise

    # ------------------------------------------------------------------
    # Hot swap and elastic scaling (the gateway autoscaler's levers)
    # ------------------------------------------------------------------
    def swap(self, artifact: str | Path, *,
             drain_timeout: float = 60.0) -> None:
        """Roll ``artifact`` across the fleet with zero dropped traffic.

        Replicas are drained one at a time: the slot stops receiving new
        requests, finishes its in-flight ones, restarts on the new
        artifact, and rejoins before the next slot starts draining — the
        rest of the fleet keeps serving throughout.
        """
        with self._lock:
            self.artifact = Path(artifact)
            for replica_id in sorted(self._replicas):
                self._drain_and_stop(replica_id, drain_timeout)
                self._respawn(self._replicas[replica_id])
                self._await(lambda: self._slot_ready(replica_id),
                            drain_timeout,
                            f"swap failed: replica {replica_id} not ready")

    def scale_to(self, replicas: int, *, wait: bool = True,
                 timeout: float = 120.0, drain_timeout: float = 60.0) -> int:
        """Grow or shrink the fleet to ``replicas`` slots; returns the size.

        Growing spawns fresh slots (and, with ``wait``, blocks until each
        reports ready so the caller knows added capacity is real).
        Shrinking retires the highest-numbered slots one at a time with
        the same drain a hot swap uses — the slot stops receiving
        traffic, finishes its in-flight requests, then exits — so scaling
        down never drops an admitted request.
        """
        if replicas <= 0:
            raise ServingError(
                f"fleet size must stay positive, got {replicas}")
        with self._lock:
            while len(self._replicas) < replicas:
                if self._closing:
                    raise ServingError("fleet is closed; cannot scale")
                replica_id = max(self._replicas, default=-1) + 1
                self._replicas[replica_id] = self._spawn(replica_id, 0)
                if wait:
                    self._await(lambda: self._slot_ready(replica_id),
                                timeout, f"replica {replica_id} not ready")
            while len(self._replicas) > replicas:
                replica_id = max(self._replicas)
                self._drain_and_stop(replica_id, drain_timeout)
                del self._replicas[replica_id]
            return len(self._replicas)

    def queue_depth(self) -> int:
        """Requests admitted but not yet resolved (dispatched + parked).

        The congestion signal the gateway's admission control and
        autoscaler read: it counts work the fleet has accepted
        responsibility for, wherever it currently sits.
        """
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Fault injection and introspection
    # ------------------------------------------------------------------
    def kill_replica(self, replica_id: int) -> None:
        """Kill one replica process outright (SIGKILL): the failover
        drill of the tests and ``repro serve-fleet --kill-one``.  The
        collector then re-routes the slot's in-flight requests and
        respawns it."""
        with self._lock:
            self._replicas[replica_id].process.kill()

    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    def drain(self, timeout: float = 120.0) -> None:
        """Block until every admitted request has resolved."""
        # parked orphans stay tracked in _pending
        with self._lock:
            self._await(lambda: not self._pending, timeout,
                        "fleet did not drain")

    def stats(self) -> dict:
        """JSON-ready fleet accounting: volume, failover, tail latency."""
        with self._lock:
            latencies = list(self._latencies)
            served = self._replica_served
            per_replica = {
                str(rid): {"served": int(served.value(replica=str(rid))),
                           "state": r.state,
                           "generation": r.generation,
                           "cold_start_ms":
                               None if r.cold_start_seconds is None
                               else r.cold_start_seconds * 1e3}
                for rid, r in sorted(self._replicas.items())}
            summary = {
                "replicas": len(self._replicas),
                "completed": self.completed,
                "failed": self.failed,
                "rerouted": self.rerouted,
                "respawns": self._respawns,
                # orphans stay tracked in _pending while parked
                "pending": len(self._pending),
                "per_replica": per_replica,
            }
        tail = latency_percentiles(latencies, empty=float("nan"))
        for name in ("p50", "p95", "p99"):
            value = tail[name]
            summary[f"latency_{name}_ms"] = (
                value * 1e3 if np.isfinite(value) else None)
        return summary

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop the fleet; by default finishes the admitted requests first."""
        if drain and not self._closing:
            try:
                self.drain(timeout)
            except ServingError:
                pass  # fail the stragglers below rather than hang
        with self._lock:
            if self._closing:
                return
            self._closing = True
            # parked orphans are still tracked in _pending, so _pending
            # alone is the full set — no entry may be failed twice
            stranded = list(self._pending.values())
            self._pending.clear()
            self._orphans.clear()
            for entry in stranded:
                self._requests_total.inc(outcome="failed")
                entry.future._fail(ServingError(
                    "fleet closed before the request completed"))
            for replica in self._replicas.values():
                if replica.state != "dead":
                    self._stop(replica)
            self._changed.notify_all()
            self._wake()
        if self._collector is not threading.current_thread():
            self._collector.join(timeout=5.0)
        for replica in self._replicas.values():
            replica.replies.close()
        self._wake_reader.close()
        self._wake_writer.close()
        if self.owns_artifact:
            self._opened_artifact.unlink(missing_ok=True)
            self.owns_artifact = False

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ServingFleet(replicas={len(self._replicas)}, "
                f"batch_mode={self.batch_mode!r}, "
                f"pending={len(self._pending)})")


# ----------------------------------------------------------------------
# Replay helper (``repro serve-fleet`` and examples/fleet_serving.py)
# ----------------------------------------------------------------------
def replay_fleet(fleet: ServingFleet, requests: list[ServeTask], *,
                 timeout: float = 120.0) -> list:
    """Submit ``requests`` closed-loop and wait for every result.

    Returns per-request results (the exception, for requests the fleet
    failed), in submission order — the fleet analogue of
    :func:`repro.serving.workload.replay`.
    """
    return settle([fleet.submit(request) for request in requests], timeout)
