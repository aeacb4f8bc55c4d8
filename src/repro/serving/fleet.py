"""Horizontally-scaled serving: a fleet of replica processes.

One :class:`~repro.serving.runtime.ServingRuntime` owns one
:class:`~repro.serving.prepared.PreparedDeployment` in one process — the
single-host deployment shape.  This module is the fleet shape behind the
ROADMAP's "heavy traffic" north star: ``N`` replica *processes*, each
holding a prepared deployment built over the same memory-mapped artifact
(so the big arrays live once in the host's page cache, not ``N`` times),
taking requests round-robin.

The moving parts:

- :class:`ReplicaPool` — spawns/respawns the worker processes, watches
  their health, and drains them one at a time for hot swaps;
- :class:`ServingFleet` — the public facade: ``submit`` returns a
  :class:`FleetFuture`; a killed replica's in-flight requests are
  re-routed to survivors and the pool respawns the dead slot;
  ``swap(artifact)`` rolls a new artifact across the fleet with zero
  dropped traffic.

Every request is served as its own batch by exactly one replica, so the
returned results are bitwise identical to
``PreparedDeployment.serve_task`` on the same request — which replica
answers (and every failover re-route) is invisible in the outputs.
Requests are task-typed :class:`~repro.serving.embeddings.ServeTask`
objects (``predict`` | ``embed`` | ``link_score`` | ``topk``).
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
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

__all__ = ["ServingFleet", "ReplicaPool", "FleetFuture", "replay_fleet"]

#: Dispatch attempts per request before its future fails (failover
#: re-routes count against them).
_MAX_DISPATCH_ATTEMPTS = 3
#: Respawns a slot that keeps dying at startup gets before it is given up.
_MAX_SPAWN_RETRIES = 2


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _replica_worker(replica_id: int, generation: int, artifact: str,
                    batch_mode: str, inbox, outbox) -> None:
    """Load the artifact, announce readiness, then serve until ``stop``.

    Runs in a child process.  The bundle is loaded *here*, memory-mapped:
    every replica maps the same file, sharing one page-cache copy of the
    stored arrays across the fleet (compressed members load eagerly).
    """
    started = time.perf_counter()
    try:
        from repro.api import DeploymentBundle
        prepared = DeploymentBundle.load(artifact, mmap=True).prepare()
        cold_start = time.perf_counter() - started
        outbox.put(("ready", replica_id, generation, cold_start))
    except BaseException as error:  # noqa: BLE001 — reported to the pool
        outbox.put(("fatal", replica_id, generation,
                    f"{type(error).__name__}: {error}"))
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
            outbox.put(("done", replica_id, generation, request_id,
                        result, seconds, t_start, spans))
        except Exception as error:  # noqa: BLE001 — forwarded to the future
            outbox.put(("error", replica_id, generation, request_id,
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
    replica_id: int | None = None
    attempts: int = 0


@dataclass
class _Replica:
    """One replica slot: a worker process plus its dispatch state."""

    replica_id: int
    generation: int
    process: object
    inbox: object
    state: str = "starting"  # starting|ready|draining|stopping|dead
    inflight: set = field(default_factory=set)
    cold_start_seconds: float | None = None
    last_error: str | None = None
    spawn_failures: int = 0


class ReplicaPool:
    """Owns the replica processes: spawn, health, respawn, drain, stop.

    The pool knows nothing about requests — :class:`ServingFleet` layers
    dispatch and failover on top through the callbacks it registers.
    Workers start by ``fork`` where the platform has it, else ``spawn``.
    """

    def __init__(self, artifact: str | Path, size: int, *,
                 batch_mode: str = "node") -> None:
        if size <= 0:
            raise ServingError(f"fleet size must be positive, got {size}")
        self.artifact = Path(artifact)
        self.size = size
        self.batch_mode = batch_mode
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self.results = self._context.Queue()
        self.replicas: dict[int, _Replica] = {}
        self.respawns = 0
        for replica_id in range(size):
            self.replicas[replica_id] = self._spawn(replica_id, generation=0)

    # ------------------------------------------------------------------
    def _spawn(self, replica_id: int, generation: int) -> _Replica:
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_replica_worker,
            args=(replica_id, generation, str(self.artifact),
                  self.batch_mode, inbox, self.results),
            name=f"repro-replica-{replica_id}", daemon=True)
        process.start()
        return _Replica(replica_id=replica_id, generation=generation,
                        process=process, inbox=inbox)

    @staticmethod
    def _discard_inbox(replica: _Replica) -> None:
        """Release an inbox whose reader is gone.

        Without ``cancel_join_thread`` the queue's feeder thread blocks
        interpreter exit trying to flush buffered requests into a pipe no
        process will ever read (the stranded requests were already
        re-dispatched from the parent-side copies).
        """
        try:
            replica.inbox.cancel_join_thread()
            replica.inbox.close()
        except (OSError, ValueError):
            pass

    def add_slot(self) -> _Replica:
        """Grow the pool by one fresh replica slot (autoscaling up).

        The new slot reuses the same spawn machinery as respawn/startup;
        the caller is responsible for waiting until it reports ready.
        """
        replica_id = max(self.replicas, default=-1) + 1
        replica = self._spawn(replica_id, generation=0)
        self.replicas[replica_id] = replica
        self.size += 1
        return replica

    def remove_slot(self, replica_id: int) -> None:
        """Forget a slot whose process was already stopped (scaling down)."""
        replica = self.replicas.pop(replica_id)
        if replica.state != "dead":
            raise ServingError(
                f"cannot remove replica {replica_id} in state "
                f"{replica.state!r}; stop it first")
        self.size -= 1

    def respawn(self, replica_id: int,
                artifact: str | Path | None = None) -> _Replica:
        """Replace a slot's process (after a crash or for a swap)."""
        old = self.replicas[replica_id]
        self._discard_inbox(old)
        if artifact is not None:
            self.artifact = Path(artifact)
        replica = self._spawn(replica_id, generation=old.generation + 1)
        replica.spawn_failures = old.spawn_failures
        self.replicas[replica_id] = replica
        self.respawns += 1
        return replica

    def ready_ids(self) -> list[int]:
        return sorted(rid for rid, r in self.replicas.items()
                      if r.state == "ready")

    def stop_replica(self, replica: _Replica, join_timeout: float = 5.0) -> None:
        """Graceful stop: the worker exits after its current request."""
        replica.state = "stopping"
        try:
            replica.inbox.put(("stop",))
        except (OSError, ValueError):
            pass  # queue already torn down with a dead process
        replica.process.join(timeout=join_timeout)
        if replica.process.is_alive():
            replica.process.terminate()
            replica.process.join(timeout=join_timeout)
        replica.state = "dead"
        self._discard_inbox(replica)

    def kill_replica(self, replica_id: int) -> None:
        """Fault injection: kill the worker process outright (SIGKILL).

        Used by the failover tests, ``repro serve-fleet --kill-one`` and
        operational drills — the monitor then re-routes the slot's
        in-flight requests and respawns it.
        """
        self.replicas[replica_id].process.kill()

    def stop_all(self, join_timeout: float = 5.0) -> None:
        for replica in self.replicas.values():
            if replica.state != "dead":
                self.stop_replica(replica, join_timeout)

    def __repr__(self) -> str:
        states = {rid: r.state for rid, r in sorted(self.replicas.items())}
        return f"ReplicaPool(size={self.size}, states={states})"


# ----------------------------------------------------------------------
# The fleet facade
# ----------------------------------------------------------------------
class ServingFleet:
    """Serve requests across a pool of replica processes.

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
    percentiles off the last 4096 completed requests.
    """

    _POLL_SECONDS = 0.02

    def __init__(self, artifact: str | Path, replicas: int = 2, *,
                 batch_mode: str = "node") -> None:
        if batch_mode not in ("graph", "node"):
            raise ServingError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        self._next_replica = 0  # round-robin cursor over the ready ids
        self.batch_mode = batch_mode
        self._lock = threading.RLock()
        self._pending: dict[int, _Pending] = {}
        self._orphans: deque[_Pending] = deque()
        self._request_ids = iter(range(1, 2**63))
        self._closing = threading.Event()
        self._latencies: deque[float] = deque(maxlen=4096)
        #: Set by ``api.open_fleet`` when it persisted a temp artifact for
        #: an in-memory bundle; ``close`` then removes the file.
        self.owns_artifact = False
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
            "repro_fleet_replicas", "Replica slots in the pool.",
            callback=lambda: self.pool.size)
        self._stage_latency = self.metrics.histogram(
            "repro_stage_latency_seconds",
            "Per-stage request latency across the serving layers.",
            ("component", "stage"))
        self.pool = ReplicaPool(artifact, replicas, batch_mode=batch_mode)
        self._collector = threading.Thread(target=self._collect_forever,
                                           name="repro-fleet-collector",
                                           daemon=True)
        self._monitor = threading.Thread(target=self._monitor_forever,
                                         name="repro-fleet-monitor",
                                         daemon=True)
        self._collector.start()
        self._monitor.start()
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
            if self._closing.is_set():
                raise ServingError("fleet is closed; cannot submit requests")
            self._pending[entry.request_id] = entry
            self._dispatch(entry)
        return entry.future

    # benchmarks/perf/harness/child.py calls this spelling
    submit_batch = submit

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
        candidates = self.pool.ready_ids()
        if not candidates:
            self._orphans.append(entry)
            return
        replica_id = candidates[self._next_replica % len(candidates)]
        self._next_replica += 1
        replica = self.pool.replicas[replica_id]
        entry.replica_id = replica_id
        entry.attempts += 1
        replica.inflight.add(entry.request_id)
        replica.inbox.put(("serve", entry.request_id, entry.task))

    def _fail_entry(self, entry: _Pending, error: ServingError) -> None:
        """Terminal failure of one request (caller holds the lock)."""
        self._pending.pop(entry.request_id, None)
        self._requests_total.inc(outcome="failed")
        entry.future._fail(error)

    def _redispatch_orphans(self) -> None:
        """Drain the orphan queue onto ready replicas (caller holds the lock)."""
        while self._orphans and self.pool.ready_ids():
            self._dispatch(self._orphans.popleft())

    # ------------------------------------------------------------------
    # Collector: worker results → futures
    # ------------------------------------------------------------------
    def _collect_forever(self) -> None:
        while not (self._closing.is_set() and not self._pending
                   and not self._orphans):
            try:
                message = self.pool.results.get(timeout=self._POLL_SECONDS)
            except _queue.Empty:
                continue
            except (OSError, ValueError):
                return  # results queue torn down during close
            self._handle_message(message)

    def _handle_message(self, message: tuple) -> None:
        kind, replica_id, generation = message[0], message[1], message[2]
        with self._lock:
            replica = self.pool.replicas.get(replica_id)
            current = replica is not None and replica.generation == generation
            if kind == "ready" and current:
                replica.cold_start_seconds = message[3]
                replica.spawn_failures = 0
                if replica.state == "starting":
                    replica.state = "ready"
                self._redispatch_orphans()
            elif kind == "fatal" and current:
                replica.last_error = message[3]
                # the monitor reaps the exited process and decides whether
                # another spawn attempt is worth it
            elif kind in ("done", "error"):
                request_id = message[3]
                entry = self._pending.pop(request_id, None)
                if current:
                    replica.inflight.discard(request_id)
                if entry is None:
                    return  # already failed, or resolved by a re-route
                if kind == "done":
                    logits, compute_seconds = message[4], message[5]
                    t_start, worker_spans = message[6], message[7]
                    wall = time.perf_counter() - entry.submitted_at
                    self._latencies.append(wall)
                    self._requests_total.inc(outcome="completed")
                    # per slot, so a respawned replica keeps its count
                    self._replica_served.inc(replica=str(replica_id))
                    # the worker's dequeue stamp splits the wall time into
                    # the canonical fleet stages (clamped: perf_counter is
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
                    entry.future.replica_id = replica_id
                    entry.future.attempts = entry.attempts
                    entry.future._resolve(logits, RequestRecord(
                        num_nodes=entry.task.num_nodes,
                        queue_seconds=max(wall - compute_seconds, 0.0),
                        compute_seconds=compute_seconds, batch_size=1))
                else:
                    self._requests_total.inc(outcome="failed")
                    entry.future.replica_id = replica_id
                    entry.future.attempts = entry.attempts
                    entry.future._fail(ServingError(
                        f"replica {replica_id} failed the request: "
                        f"{message[4]}"))

    # ------------------------------------------------------------------
    # Monitor: health checks, failover, respawn
    # ------------------------------------------------------------------
    def _monitor_forever(self) -> None:
        while not self._closing.is_set():
            self._check_health()
            time.sleep(self._POLL_SECONDS)

    def _check_health(self) -> None:
        with self._lock:
            for replica in list(self.pool.replicas.values()):
                if replica.state in ("stopping", "dead"):
                    continue
                if replica.process.is_alive():
                    continue
                self._handle_death(replica)

    def _handle_death(self, replica: _Replica) -> None:
        """A replica died unannounced: re-route its work, refill the slot."""
        failed_start = replica.state == "starting"
        replica.state = "dead"
        self._replica_died.inc(replica=str(replica.replica_id))
        self.pool._discard_inbox(replica)
        stranded = [self._pending[rid] for rid in sorted(replica.inflight)
                    if rid in self._pending]
        replica.inflight.clear()
        if failed_start:
            replica.spawn_failures += 1
        if replica.spawn_failures <= _MAX_SPAWN_RETRIES:
            self.pool.respawn(replica.replica_id)
            self._replica_respawned.inc(replica=str(replica.replica_id))
        for entry in stranded:
            self._requests_total.inc(outcome="rerouted")
            self._dispatch(entry)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every replica slot is ready (or raise)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                states = [r.state for r in self.pool.replicas.values()]
                errors = [r.last_error for r in self.pool.replicas.values()
                          if r.last_error]
                exhausted = [r for r in self.pool.replicas.values()
                             if r.state == "dead"
                             and r.spawn_failures > _MAX_SPAWN_RETRIES]
            if exhausted:
                self.close(drain=False)
                detail = errors[-1] if errors else "worker exited at startup"
                raise ServingError(
                    f"replica {exhausted[0].replica_id} failed to start "
                    f"after {_MAX_SPAWN_RETRIES + 1} attempts: "
                    f"{detail}")
            if all(state == "ready" for state in states):
                return
            if time.monotonic() > deadline:
                self.close(drain=False)
                raise ServingError(
                    f"fleet not ready within {timeout}s (states: {states})")
            time.sleep(self._POLL_SECONDS)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap(self, artifact: str | Path, *,
             drain_timeout: float = 60.0) -> None:
        """Roll ``artifact`` across the fleet with zero dropped traffic.

        Replicas are drained one at a time: the slot stops receiving new
        requests, finishes its in-flight ones, restarts on the new
        artifact, and rejoins before the next slot starts draining — the
        rest of the fleet keeps serving throughout.
        """
        artifact = Path(artifact)
        for replica_id in sorted(self.pool.replicas):
            with self._lock:
                replica = self.pool.replicas[replica_id]
                if replica.state == "ready":
                    replica.state = "draining"
            self._wait_drained(replica_id, drain_timeout)
            with self._lock:
                # re-read the slot: if the draining worker died, the
                # monitor already respawned it — stop whatever process
                # holds the slot *now*, not a stale handle, or the
                # replacement would leak unsupervised
                replica = self.pool.replicas[replica_id]
                self.pool.stop_replica(replica)
                self.pool.respawn(replica_id, artifact=artifact)
                self._replica_respawned.inc(replica=str(replica_id))
            self._wait_slot_ready(replica_id, drain_timeout)
        self.pool.artifact = artifact

    def _wait_drained(self, replica_id: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                # look the slot up fresh each poll — a mid-drain death
                # swaps in a respawned replica whose inflight starts empty
                replica = self.pool.replicas[replica_id]
                if not replica.inflight:
                    return
            if time.monotonic() > deadline:
                raise ServingError(
                    f"replica {replica_id} did not drain within "
                    f"{timeout}s ({len(replica.inflight)} in flight)")
            time.sleep(self._POLL_SECONDS)

    def _wait_slot_ready(self, replica_id: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                replica = self.pool.replicas[replica_id]
                if replica.state == "ready":
                    return
                if (replica.state == "dead"
                        and replica.spawn_failures > _MAX_SPAWN_RETRIES):
                    raise ServingError(
                        f"swap failed: replica {replica_id} could not start "
                        f"on the new artifact: {replica.last_error}")
            if time.monotonic() > deadline:
                raise ServingError(
                    f"swap failed: replica {replica_id} not ready within "
                    f"{timeout}s")
            time.sleep(self._POLL_SECONDS)

    # ------------------------------------------------------------------
    # Elastic scaling (the gateway autoscaler's levers)
    # ------------------------------------------------------------------
    def scale_to(self, replicas: int, *, wait: bool = True,
                 timeout: float = 120.0, drain_timeout: float = 60.0) -> int:
        """Grow or shrink the fleet to ``replicas`` slots; returns the size.

        Growing spawns fresh slots through the pool's respawn machinery
        (and, with ``wait``, blocks until each reports ready so the
        caller knows added capacity is real).  Shrinking retires the
        highest-numbered slots one at a time with the same drain dance a
        hot swap uses — the slot stops receiving traffic, finishes its
        in-flight requests, then exits — so scaling down never drops an
        admitted request.
        """
        if replicas <= 0:
            raise ServingError(
                f"fleet size must stay positive, got {replicas}")
        while self.pool.size < replicas:
            with self._lock:
                if self._closing.is_set():
                    raise ServingError("fleet is closed; cannot scale")
                replica = self.pool.add_slot()
            if wait:
                self._wait_slot_ready(replica.replica_id, timeout)
        while self.pool.size > replicas:
            self._retire_one(drain_timeout)
        return self.pool.size

    def _retire_one(self, drain_timeout: float) -> None:
        """Drain and remove the highest-numbered slot (zero dropped work)."""
        with self._lock:
            replica_id = max(self.pool.replicas)
            replica = self.pool.replicas[replica_id]
            if replica.state == "ready":
                replica.state = "draining"
        self._wait_drained(replica_id, drain_timeout)
        with self._lock:
            # re-read the slot: a mid-drain death already respawned it
            replica = self.pool.replicas[replica_id]
            self.pool.stop_replica(replica)
            self.pool.remove_slot(replica_id)

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
        """Kill one replica process outright (failover drill)."""
        self.pool.kill_replica(replica_id)

    @property
    def num_replicas(self) -> int:
        return self.pool.size

    def drain(self, timeout: float = 120.0) -> None:
        """Block until every admitted request has resolved."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._pending and not self._orphans:
                    return
            if time.monotonic() > deadline:
                raise ServingError(f"fleet did not drain within {timeout}s")
            time.sleep(self._POLL_SECONDS)

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
                for rid, r in sorted(self.pool.replicas.items())}
            summary = {
                "replicas": self.pool.size,
                "completed": self.completed,
                "failed": self.failed,
                "rerouted": self.rerouted,
                "respawns": self.pool.respawns,
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
        if drain and not self._closing.is_set():
            try:
                self.drain(timeout)
            except ServingError:
                pass  # fail the stragglers below rather than hang
        self._closing.set()
        with self._lock:
            # parked orphans are still tracked in _pending, so _pending
            # alone is the full set — no entry may be failed twice
            stranded = list(self._pending.values())
            self._pending.clear()
            self._orphans.clear()
            for entry in stranded:
                self._requests_total.inc(outcome="failed")
                entry.future._fail(ServingError(
                    "fleet closed before the request completed"))
            self.pool.stop_all()
        for thread in (self._collector, self._monitor):
            if thread.is_alive() and thread is not threading.current_thread():
                thread.join(timeout=5.0)
        if self.owns_artifact:
            self.pool.artifact.unlink(missing_ok=True)
            self.owns_artifact = False

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ServingFleet(replicas={self.pool.size}, "
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
