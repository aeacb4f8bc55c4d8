"""The long-lived online serving runtime.

``ServingRuntime`` turns the one-shot inference engine into a service:
requests (single inductive nodes or small node groups) are admitted
through a :class:`~repro.serving.queue.BoundedRequestQueue`, coalesced by
a :class:`MicroBatchScheduler` into one attach+normalize+forward pass
over the :class:`~repro.serving.prepared.PreparedDeployment` cache, and
answered through futures carrying per-request latency accounting.

Two execution modes share the same batching/serving code path:

- **threaded** (``start()``/``stop()`` or the context manager) — a
  background serving loop drains the queue while producers submit
  concurrently; this is the open-loop deployment shape.
- **stepped** (``step()``) — the caller drives the loop synchronously,
  one micro-batch per call; this is the deterministic shape used by the
  parity tests and the closed-loop benchmark.

Requests coalesced into one micro-batch are merged with
:func:`merge_requests` and served in one pass.  A synthetic SGC
deployment serves the frozen operator, which never re-normalizes the
base around batch-mates: a node-mode request's embedding is bitwise
what it gets served alone and its logits agree to 1e-12 relative,
whatever shares its batch.  Every other deployment (the original graph,
or a model other than SGC) is exact *per merged batch*: which requests
share a batch moves the augmented graph's degrees and therefore the
logits slightly, and under the threaded loop batch composition depends
on arrival timing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import InferenceError, ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.ops import canonical_csr
from repro.graph.stream import GraphDelta
from repro.serving.embeddings import ServeTask
from repro.serving.prepared import DeltaRefreshReport, PreparedDeployment
from repro.serving.queue import BoundedRequestQueue, QueueFullError
from repro.serving.stats import LatencyAccounting, RequestRecord, RuntimeStats

__all__ = ["ServingRuntime", "MicroBatchScheduler", "ServingFuture",
           "IngestFuture", "Request", "merge_requests"]


class IngestFuture:
    """Completion handle for one ingested :class:`GraphDelta`."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._report: DeltaRefreshReport | None = None
        self._error: BaseException | None = None

    def _resolve(self, report: DeltaRefreshReport) -> None:
        self._report = report
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> DeltaRefreshReport:
        """The delta's :class:`DeltaRefreshReport`; raises its error if any."""
        if not self._done.wait(timeout=timeout):
            raise ServingError(f"delta not applied within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._report


class ServingFuture:
    """Completion handle for one submitted request."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._logits: np.ndarray | None = None
        self._record: RequestRecord | None = None
        self._error: BaseException | None = None
        self._callback_lock = threading.Lock()
        self._callbacks: list = []  # guarded by _callback_lock

    # -- runtime side ---------------------------------------------------
    def _resolve(self, logits: np.ndarray, record: RequestRecord) -> None:
        self._logits = logits
        self._record = record
        self._done.set()
        self._run_callbacks()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback) -> None:
        """Run ``callback(self)`` once the future completes.

        Invoked from whichever thread resolves the future (immediately,
        from the caller, if it already completed), so callbacks must be
        quick and non-blocking — the async gateway uses this to hop a
        completion back onto its event loop without burning a waiter
        thread per in-flight request.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- caller side ----------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Logits of this request's nodes; raises the serving error if any."""
        if not self._done.wait(timeout=timeout):
            raise ServingError(f"request not completed within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._logits

    @property
    def record(self) -> RequestRecord | None:
        """Latency accounting, available once the request completed."""
        return self._record


@dataclass
class Request:
    """One admitted request: the :class:`ServeTask` as submitted, plus the
    blocks ``_build_request`` canonicalised from its batch (float64 CSR,
    duplicates summed, indices sorted; ``intra`` is ``None`` when the
    batch has none or the runtime serves node mode), its future and
    stamps."""

    task: ServeTask
    features: np.ndarray
    incremental: sp.csr_matrix
    intra: sp.csr_matrix | None
    future: ServingFuture = field(default_factory=ServingFuture)
    enqueued_at: float = 0.0

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def result_rows(self) -> int:
        """Reply rows this request owns in its group's merged result."""
        if self.task.task == "link_score":
            return int(self.task.pairs.shape[0])
        return self.num_nodes


def _stack(blocks: list, rows: list[int], width: int | None) -> sp.csr_matrix:
    """Row-stack canonical CSR blocks by concatenating their arrays.

    ``None`` is an empty block of its ``rows``.  With a ``width`` the
    result has that many columns (narrower blocks gain empty ones);
    without, block ``i``'s columns shift past blocks ``0..i-1`` — the
    block diagonal of square blocks.  A lone block already at the target
    shape is returned as it is.
    """
    total = sum(rows)
    shape = (total, total) if width is None else (total, width)
    if len(blocks) == 1 and blocks[0] is not None and blocks[0].shape == shape:
        return blocks[0]
    data, indices, indptr = [], [], [np.zeros(1, dtype=np.int64)]
    stored = column = 0
    for block, count in zip(blocks, rows):
        if block is not None:
            data.append(block.data)
            indices.append(block.indices if width is not None
                           else block.indices + column)
            indptr.append(block.indptr[1:] + stored)
            stored += block.nnz
        else:
            indptr.append(np.full(count, stored, dtype=np.int64))
        column += count
    empty = np.zeros(0, dtype=np.int64)
    return sp.csr_matrix((np.concatenate(data) if data else np.zeros(0),
                          np.concatenate(indices) if indices else empty,
                          np.concatenate(indptr)), shape=shape)


def _merge(requests, width: int | None, intra: bool) -> IncrementalBatch:
    """:func:`merge_requests` at base ``width`` (``None``: the one width
    every request cites); ``intra=False`` leaves the merged intra out."""
    incremental = [canonical_csr(r.incremental) for r in requests]
    rows = [block.shape[0] for block in incremental]
    widths = {block.shape[1] for block in incremental}
    if width is None and len(widths) == 1:
        width = widths.pop()
    elif width is None or max(widths) > width:
        raise ServingError(
            f"cannot merge requests citing base widths {sorted(widths)}"
            + ("" if width is None else f" into width {width}"))
    if len(requests) == 1:
        features = np.atleast_2d(requests[0].features)
    else:
        features = np.vstack([r.features for r in requests])
    merged_intra = None
    if intra:
        merged_intra = _stack(
            [None if r.intra is None else canonical_csr(r.intra)
             for r in requests], rows, None)
    return IncrementalBatch(
        features=features, incremental=_stack(incremental, rows, width),
        intra=merged_intra,
        labels=np.full(features.shape[0], -1, dtype=np.int64))


def merge_requests(
        requests: list[Request] | list[IncrementalBatch]) -> IncrementalBatch:
    """Coalesce requests (or plain batches) into one batch.

    The incremental blocks are stacked row-wise and the intra blocks
    block-diagonally, both by concatenating canonical CSR arrays (see
    ``docs/serving.md``); cross-request intra edges are zero, because
    independently arriving requests share no known edges.  A plain
    batch is canonicalised the way admission would be, and its ``intra``
    may be ``None`` (an empty block).  Every request must cite the same
    base width, or :class:`ServingError` is raised.
    """
    return _merge(requests, None, intra=True)


class MicroBatchScheduler:
    """Coalesce up to ``max_batch_size`` requests or until ``max_wait_ms``.

    Coalescing amortizes the per-pass fixed costs (operator assembly,
    python dispatch, BLAS call overhead) across requests at the price of
    queueing delay.  ``deadline(first_enqueue)`` tells the runtime how
    long it may keep waiting for companions of the batch's first
    request; ``full(count)`` caps the batch size.  ``max_wait_ms=0``
    disables waiting (each batch takes only what is already queued), and
    ``max_batch_size=1`` serves every request alone.
    """

    def __init__(self, max_batch_size: int = 32,
                 max_wait_ms: float = 2.0) -> None:
        if max_batch_size <= 0:
            raise ServingError(
                f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ServingError(
                f"max_wait_ms must be non-negative, got {max_wait_ms}")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms

    def full(self, count: int) -> bool:
        return count >= self.max_batch_size

    def deadline(self, first_enqueue: float) -> float:
        """Latest time (perf_counter seconds) the batch may keep filling."""
        return first_enqueue + self.max_wait_ms / 1e3

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(max_batch_size={self.max_batch_size}, "
                f"max_wait_ms={self.max_wait_ms})")


class ServingRuntime:
    """Serve a stream of inductive requests against one prepared deployment.

    Parameters
    ----------
    prepared:
        The request-invariant cache (build via
        ``PreparedDeployment.from_bundle`` or :func:`repro.api.open_runtime`).
    scheduler / scheduler_options:
        A :class:`MicroBatchScheduler`, or the name ``"microbatch"`` to
        build one from ``scheduler_options`` (its keyword arguments).
    batch_mode:
        ``"graph"`` (requests may carry intra edges) or ``"node"``.
    queue_capacity:
        Capacity of the bounded admission
        :class:`~repro.serving.queue.BoundedRequestQueue`; ``submit``'s
        ``timeout`` bounds how long a producer waits at a full queue.

    :meth:`stats` is the runtime's one accounting: every well-formed
    submitted request ends in it exactly once, as served, failed, or
    rejected at a full queue.
    """

    def __init__(self, prepared: PreparedDeployment,
                 scheduler: MicroBatchScheduler | str = "microbatch",
                 *, batch_mode: str = "graph", queue_capacity: int = 1024,
                 scheduler_options: dict | None = None) -> None:
        if batch_mode not in ("graph", "node"):
            raise InferenceError(
                f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
        self.prepared = prepared
        if isinstance(scheduler, str):
            if scheduler != "microbatch":
                raise ServingError(
                    f"unknown scheduler {scheduler!r}; the only named "
                    "scheduler is 'microbatch' (or pass a "
                    "MicroBatchScheduler)")
            scheduler = MicroBatchScheduler(**(scheduler_options or {}))
        self.scheduler = scheduler
        self.batch_mode = batch_mode
        self.queue = BoundedRequestQueue(queue_capacity)
        self.accounting = LatencyAccounting()
        self._serve_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        #: Default staleness threshold for :meth:`ingest`ed deltas.
        self.staleness_threshold = 0.25
        self._delta_lock = threading.Lock()
        # guarded by _delta_lock
        self._pending_deltas: list[tuple[GraphDelta, IngestFuture]] = []
        self._delta_reports: list[DeltaRefreshReport] = []  # guarded by _delta_lock
        # The base width when this runtime opened: the narrowest id space
        # any client could legitimately have built a request against.
        # Narrower inputs are malformed, not stale, and stay rejected.
        self._floor_columns = self._original_columns

    @property
    def _original_columns(self) -> int:
        """Expected incremental width — tracks the evolving base graph."""
        if self.prepared.mapping is not None:
            return int(self.prepared.mapping.shape[0])
        return self.prepared.num_base

    def _pending_appended(self) -> int:
        """Base-graph rows promised by ingested-but-unapplied deltas."""
        with self._delta_lock:
            return sum(delta.num_new_nodes
                       for delta, _ in self._pending_deltas)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, task: ServeTask,
               timeout: float | None = None) -> ServingFuture:
        """Admit one :class:`~repro.serving.embeddings.ServeTask`; returns
        its :class:`ServingFuture`.

        The task carries the batch plus the task type and every
        per-request option.  A malformed request raises
        :class:`ServingError` before anything is enqueued.  At a full
        queue the call waits up to ``timeout`` seconds (``None``: until
        there is room; ``0``: not at all), then returns a future failed
        as rejected.
        """
        if not isinstance(task, ServeTask):
            raise ServingError(
                f"submit expects a ServeTask, got {type(task).__name__}")
        if task.mode is not None and task.mode != self.batch_mode:
            raise ServingError(
                f"this runtime serves batch_mode={self.batch_mode!r}; "
                f"the request asked for mode={task.mode!r}")
        request = self._build_request(task)
        request.enqueued_at = time.perf_counter()
        try:
            self.queue.put(request, timeout=timeout)
        except QueueFullError:
            self.accounting.observe_rejection()
            request.future._fail(ServingError(
                "request rejected: serving queue is full"))
        return request.future

    def _build_request(self, task: ServeTask) -> Request:
        """Canonicalise the task's batch arrays once, at admission.

        A float64 CSR block already in canonical form is kept as it is;
        anything else is converted into fresh arrays (see
        :func:`~repro.graph.ops.canonical_csr`), so the caller's arrays
        are never written.
        The intra block is shape-checked in both modes but kept only in
        graph mode, the one mode that reads it.
        """
        batch = task.batch
        feats = np.asarray(batch.features, dtype=np.float64)
        if feats.ndim == 1:
            feats = feats[None, :]
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ServingError(
                f"request features must be (n >= 1, d), got {feats.shape}")
        if feats.shape[1] != self.prepared.feature_dim:
            # reject at admission: inside a coalesced batch this would fail
            # every co-batched request instead of just the malformed one
            raise ServingError(
                f"request feature dim {feats.shape[1]} != deployment "
                f"feature dim {self.prepared.feature_dim}")
        n = feats.shape[0]
        inc = canonical_csr(batch.incremental)
        # Valid widths span every base size this runtime has exposed: a
        # client that has not yet observed streamed appends may cite a
        # historical (narrower) id space down to the opening width, and
        # one that just ingested a delta may already cite its promised
        # nodes before the loop applies it.  A narrower block gains its
        # zero columns when its micro-batch is merged.  The pending count
        # is read *before* the current width: a delta applying between
        # the two reads then raises the width instead of shrinking the
        # bound.
        pending = self._pending_appended()
        width = self._original_columns
        if inc.shape[0] != n or not (
                self._floor_columns <= inc.shape[1] <= width + pending):
            raise ServingError(
                f"incremental adjacency has shape {inc.shape}, expected "
                f"({n}, {width})")
        intra = batch.intra
        if intra is not None:
            # checked unconverted: node mode drops the block unread
            shape = (intra.shape if sp.issparse(intra)
                     else np.atleast_2d(np.asarray(intra)).shape)
            if shape != (n, n):
                raise ServingError(
                    f"intra adjacency has shape {shape}, expected ({n}, {n})")
            intra = (canonical_csr(intra) if self.batch_mode == "graph"
                     else None)
        return Request(task=task, features=feats, incremental=inc,
                       intra=intra)

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def ingest(self, delta: GraphDelta) -> IngestFuture:
        """Admit a :class:`~repro.graph.stream.GraphDelta` for application.

        Deltas are applied between micro-batches (never mid-forward) by
        the same loop that serves requests, in admission order; the
        returned :class:`IngestFuture` resolves with the
        :class:`~repro.serving.prepared.DeltaRefreshReport` once the
        delta is applied: the exact serve path's state is current, and
        the report's ``invalidated`` caches are recomputed on their next
        read.  In stepped mode call :meth:`step` (or :meth:`run_pending`)
        to drain pending deltas.
        """
        if not isinstance(delta, GraphDelta):
            raise ServingError(
                f"ingest needs a GraphDelta, got {type(delta).__name__}")
        if self.queue.closed:
            raise ServingError("runtime was stopped; cannot ingest deltas")
        future = IngestFuture()
        with self._delta_lock:
            self._pending_deltas.append((delta, future))
        self.queue.wake()  # an idle serving loop applies it now
        return future

    def _apply_pending_deltas(self) -> int:
        """Apply every admitted delta (caller holds ``_serve_lock``)."""
        with self._delta_lock:
            pending, self._pending_deltas = self._pending_deltas, []
        for delta, future in pending:
            try:
                report = self.prepared.apply_delta(
                    delta, staleness_threshold=self.staleness_threshold)
            except Exception as error:  # noqa: BLE001 — forwarded to future
                future._fail(error)
                continue
            with self._delta_lock:
                self._delta_reports.append(report)
            future._resolve(report)
        return len(pending)

    def stream_stats(self) -> dict:
        """Aggregate ingest accounting (JSON-ready)."""
        with self._delta_lock:
            reports = list(self._delta_reports)
        refresh = [r for r in reports if r.mode != "noop"]
        seconds = [r.seconds for r in refresh]
        return {
            "deltas": len(reports),
            "incremental": sum(r.mode == "incremental" for r in reports),
            "rebuilds": sum(r.mode == "rebuild" for r in reports),
            "appended_nodes": sum(r.appended for r in reports),
            "refresh_mean_ms": (float(np.mean(seconds)) * 1e3
                                if seconds else None),
            "refresh_max_ms": (float(np.max(seconds)) * 1e3
                               if seconds else None),
        }

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def step(self, timeout: float | None = 0.0) -> int:
        """Form and serve one micro-batch synchronously.

        Pending deltas are applied first (ingest interleaves with serve
        traffic at micro-batch granularity).  Returns the number of
        requests served (0 when the queue stayed empty for ``timeout``
        seconds).  This is the deterministic entrypoint used by tests
        and the closed-loop benchmark.
        """
        with self._serve_lock:
            self._apply_pending_deltas()
            batch = self._collect(timeout)
            if not batch:
                return 0
            self._execute(batch)
            return len(batch)

    def run_pending(self) -> int:
        """Serve until the queue is empty; returns requests served."""
        total = 0
        while True:
            served = self.step(timeout=0.0)
            if served == 0:
                return total
            total += served

    def _collect(self, timeout: float | None) -> list[Request]:
        """Form one micro-batch: the first request plus every companion
        that arrives before the scheduler's deadline or size cap.

        Caller holds ``_serve_lock``.
        """
        first = self.queue.get(timeout=timeout)
        if first is None:
            return []
        batch = [first]
        deadline = self.scheduler.deadline(first.enqueued_at)
        while not self.scheduler.full(len(batch)):
            remaining = deadline - time.perf_counter()
            if remaining > 0:
                nxt = self.queue.get(timeout=remaining)
            else:
                nxt = self.queue.get_nowait()
            if nxt is None:
                break
            batch.append(nxt)
        return batch

    def _check_request_widths(self, requests: list[Request]) -> list[Request]:
        """The requests of the batch the current base width can serve.

        Caller holds ``_serve_lock``.  A request admitted *ahead* of a
        still-pending ingested delta forces that delta to apply first
        (its ids only exist in the promised width).  A request whose
        promised width never materialized — its delta failed to apply —
        is failed *individually* here, so it cannot poison the co-batched
        requests with a merge-shape error; the survivors are returned.
        Requests admitted before an append landed are narrower; the merge
        widens them (:func:`_merge`).
        """
        width = self._original_columns
        if any(r.incremental.shape[1] > width for r in requests):
            self._apply_pending_deltas()
            width = self._original_columns
        kept = []
        for request in requests:
            cited = request.incremental.shape[1]
            if cited > width:
                request.future._fail(ServingError(
                    f"request cites base width {cited}, promised by "
                    f"an ingested delta that failed to apply (current "
                    f"width {width})"))
                self.accounting.observe_failure(1)
                continue
            kept.append(request)
        return kept

    def _execute(self, requests: list[Request]) -> None:
        """Serve one micro-batch, one forward per task signature.

        Caller holds ``_serve_lock``.
        """
        try:
            requests = self._check_request_widths(requests)
        except Exception as error:  # noqa: BLE001 — forwarded to futures
            for request in requests:
                request.future._fail(error)
            self.accounting.observe_failure(len(requests))
            return
        # one forward per execution signature: requests of the same task
        # (and task options) coalesce exactly as before — a micro-batch
        # of only predict requests takes the identical merged path the
        # pre-task runtime took, so its logits are bitwise unchanged
        groups: dict[tuple, list[Request]] = {}
        for request in requests:
            task = request.task
            key = (task.task, task.k, task.scorer)
            groups.setdefault(key, []).append(request)
        for group in groups.values():
            self._execute_group(group)

    def _merged_task(self, requests: list[Request]) -> ServeTask:
        """The group's merged :class:`ServeTask` (shared task options),
        at the current base width.  Caller holds ``_serve_lock``.

        ``link_score`` pairs cite batch-local rows, so each request's
        pair block is shifted by its row offset in the merged batch.
        """
        proto = requests[0].task
        merged = _merge(requests, self._original_columns,
                        intra=self.batch_mode == "graph")
        pairs = None
        if proto.task == "link_score":
            blocks = []
            offset = 0
            for request in requests:
                shifted = request.task.pairs.copy()
                shifted[:, 0] += offset
                blocks.append(shifted)
                offset += request.num_nodes
            pairs = np.concatenate(blocks, axis=0)
        return ServeTask(batch=merged, task=proto.task, k=proto.k,
                         pairs=pairs, scorer=proto.scorer)

    def _execute_group(self, requests: list[Request]) -> None:
        """Serve one task group and settle its futures.

        Caller holds ``_serve_lock``.
        """
        started = time.perf_counter()
        try:
            task = self._merged_task(requests)
            result, _, _ = self.prepared.serve_task(
                task, batch_mode=self.batch_mode)
        except Exception as error:  # noqa: BLE001 — forwarded to futures
            for request in requests:
                request.future._fail(error)
            self.accounting.observe_failure(len(requests))
            return
        finished = time.perf_counter()
        # the group's wall span: the merge and dispatch count as compute
        compute_seconds = finished - started
        records = []
        offset = 0
        for request in requests:
            rows = result[offset:offset + request.result_rows]
            offset += request.result_rows
            record = RequestRecord(
                num_nodes=request.num_nodes,
                queue_seconds=max(started - request.enqueued_at, 0.0),
                compute_seconds=compute_seconds,
                batch_size=len(requests))
            records.append(record)
            request.future._resolve(rows, record)
        self.accounting.observe_batch(records, started, finished)

    # ------------------------------------------------------------------
    # Lifecycle (threaded mode)
    # ------------------------------------------------------------------
    def start(self) -> "ServingRuntime":
        """Start the background serving loop (idempotent)."""
        if self.queue.closed:
            raise ServingError(
                "runtime was stopped and its queue closed; "
                "open a fresh runtime instead of restarting this one")
        if self._thread is not None and self._thread.is_alive():
            return self
        self._thread = threading.Thread(target=self._serve_forever,
                                        name="repro-serving", daemon=True)
        self._thread.start()
        return self

    def _serve_forever(self) -> None:
        # idle, the loop sleeps until a request or a delta arrives, or
        # stop() closes the queue
        while not self.queue.closed:
            self.queue.wait(lambda: bool(self._pending_deltas))
            self.step()
        self.run_pending()  # drain what was admitted before shutdown

    def stop(self) -> None:
        """Close admissions, stop the loop, and drain what was admitted.

        Every queued request is served and every ingested delta applied,
        so each future resolves and :meth:`stats` accounts for every
        request.
        """
        self.queue.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.run_pending()

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """Aggregated latency/throughput accounting so far."""
        return self.accounting.summary()

    def warm_base(self) -> np.ndarray:
        """Cached logits for the deployed (known) nodes.

        Taken under the serve lock: a read may bring the prepared caches
        up to date, and the serving loop applies deltas under that lock.
        """
        with self._serve_lock:
            return self.prepared.warm_base()

    def __repr__(self) -> str:
        return (f"ServingRuntime({self.prepared!r}, "
                f"scheduler={self.scheduler!r}, batch_mode={self.batch_mode!r}, "
                f"pending={len(self.queue)})")
