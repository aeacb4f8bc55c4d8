"""ServingRuntime: micro-batching, queueing, accounting, parity."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import InferenceError, ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.ops import canonical_csr
from repro.graph.stream import GraphDelta
from repro.inference import InductiveServer
from repro.nn import make_model
from repro.serving import (
    BoundedRequestQueue,
    MicroBatchScheduler,
    PreparedDeployment,
    QueueFullError,
    ServeTask,
    ServingRuntime,
    merge_requests,
    split_requests,
    tasked_requests,
)


def _stream(batch, num_requests, nodes_per_request):
    return tasked_requests(
        split_requests(batch, num_requests, nodes_per_request), "predict")


@pytest.fixture(scope="module")
def split():
    from repro.graph import load_dataset
    return load_dataset("tiny-sim", seed=7)


@pytest.fixture(scope="module")
def condensed(split):
    from repro.condense import MCondConfig, MCondReducer
    config = MCondConfig(outer_loops=1, match_steps=3, mapping_steps=5,
                        adjacency_pretrain_steps=30, seed=3)
    return MCondReducer(config).reduce(split, 9)


@pytest.fixture(scope="module")
def sgc(split):
    return make_model("sgc", split.original.feature_dim, split.num_classes,
                      seed=0)


def _runtime(sgc, split, condensed, deployment, **kwargs):
    base = split.original if deployment == "original" else None
    cond = condensed if deployment == "synthetic" else None
    prepared = PreparedDeployment(sgc, deployment, base, cond)
    return ServingRuntime(prepared, **kwargs)


def _oracle_merge(batches, width):
    """The merge as scipy builds it: each batch widened to ``width`` base
    columns, then ``sp.vstack(...).tocsr()`` and
    ``sp.block_diag(...).tocsr()`` (``intra=None`` an empty block)."""
    incremental, intra = [], []
    for batch in batches:
        inc = batch.incremental.tocsr().astype(np.float64)
        n = inc.shape[0]
        incremental.append(sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                                         shape=(n, width)))
        intra.append(sp.csr_matrix((n, n)) if batch.intra is None
                     else batch.intra.tocsr().astype(np.float64))
    features = np.vstack([batch.features for batch in batches])
    return IncrementalBatch(
        features=features, incremental=sp.vstack(incremental).tocsr(),
        intra=sp.block_diag(intra).tocsr(),
        labels=np.full(features.shape[0], -1, dtype=np.int64))


def _stored_csr(rows, shape, index_dtype=np.int64):
    """A CSR matrix storing exactly ``rows``' ``(column, value)`` pairs, in
    order — unsorted columns, duplicates and explicit zeros included."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([c for row in rows for c, _ in row], dtype=np.int64)
    data = np.array([v for row in rows for _, v in row], dtype=np.float64)
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
    matrix.indices = indices.astype(index_dtype)
    matrix.indptr = indptr.astype(index_dtype)
    return matrix


def _edges(batch, row):
    inc = batch.incremental.tocsr()
    start, stop = inc.indptr[row], inc.indptr[row + 1]
    return list(zip(inc.indices[start:stop].tolist(),
                    inc.data[start:stop].tolist()))


def _awkward_batches(source, width, appended):
    """Four 2-node requests whose blocks no merge may take at face value.

    Mixed int32/int64 index dtypes; reversed (unsorted) rows with a
    duplicated edge and an explicit zero; an edgeless row; intra blocks
    with duplicate and unsorted entries; a canonical block carrying an
    explicit zero; and requests cut at the narrower pre-append ``width``
    next to ones citing the ``appended`` base nodes beyond it.
    """
    wide = width + appended
    batches = []
    for index in range(4):
        rows = [_edges(source, 2 * index), _edges(source, 2 * index + 1)]
        if index == 0:   # unsorted, duplicated edge, explicit zero
            rows = [row[::-1] + row[:1] + [(width - 1, 0.0)] for row in rows]
            intra = _stored_csr([[(1, 1.0), (0, 0.0), (1, 0.5)], [(0, 1.0)]],
                                (2, 2), np.int32)
        elif index == 1:  # an edgeless row, int32 indices, no intra
            rows = [sorted(rows[0]), []]
            intra = None
        elif index == 2:  # canonical with an explicit zero; cites appended
            rows = [sorted({**dict(rows[0]), wide - 1: 2.0}.items()),
                    sorted({wide - 2: 0.0, **dict(rows[1])}.items())]
            intra = _stored_csr([[(1, 1.0)], [(0, 1.0)]], (2, 2))
        else:             # unsorted intra with a duplicate
            intra = _stored_csr([[(1, 0.25), (1, 0.75)], [(0, 1.0)]], (2, 2))
        cited = width if index in (0, 1) else wide
        incremental = _stored_csr(rows, (2, cited),
                                  np.int32 if index == 1 else np.int64)
        batches.append(IncrementalBatch(
            features=source.features[2 * index:2 * index + 2],
            incremental=incremental, intra=intra,
            labels=np.full(2, -1, dtype=np.int64)))
    return batches


def _snapshot(batches):
    """Every array a caller handed in, as bytes and dtype."""
    arrays = []
    for batch in batches:
        arrays.append(np.asarray(batch.features))
        for block in (batch.incremental, batch.intra):
            if block is not None:
                arrays.extend((block.data, block.indices, block.indptr))
    return [(array.dtype, array.shape, array.tobytes()) for array in arrays]


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_fifo(self):
        queue = BoundedRequestQueue(capacity=4)
        for item in ("a", "b", "c"):
            queue.put(item)
        assert [queue.get_nowait() for _ in range(3)] == ["a", "b", "c"]
        assert queue.get_nowait() is None

    def test_reject_policy(self):
        # a put that may not wait fails at once on a full queue
        queue = BoundedRequestQueue(capacity=1)
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b", timeout=0)

    def test_block_policy_times_out(self):
        queue = BoundedRequestQueue(capacity=1)
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b", timeout=0.01)

    def test_close_stops_admission_but_drains(self):
        queue = BoundedRequestQueue(capacity=4)
        queue.put("a")
        queue.close()
        with pytest.raises(ServingError):
            queue.put("b")
        assert queue.get() == "a"
        assert queue.get(timeout=0.01) is None  # closed and empty

    def test_validation(self):
        with pytest.raises(ServingError):
            BoundedRequestQueue(capacity=0)


class TestBoundedQueueConcurrency:
    """Waiting and failing puts under many producer threads."""

    PRODUCERS = 8
    PER_PRODUCER = 25

    def _hammer(self, queue, produce):
        """Run ``produce(producer_id)`` on every producer thread at once."""
        import threading

        start = threading.Barrier(self.PRODUCERS)
        outcomes = [None] * self.PRODUCERS

        def worker(pid):
            start.wait()
            outcomes[pid] = produce(pid)

        threads = [threading.Thread(target=worker, args=(pid,))
                   for pid in range(self.PRODUCERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        return outcomes

    def test_block_policy_loses_nothing_under_contention(self):
        queue = BoundedRequestQueue(capacity=4)
        consumed = []

        def produce(pid):
            for i in range(self.PER_PRODUCER):
                queue.put((pid, i), timeout=20.0)
            return self.PER_PRODUCER

        import threading

        def consume():
            while len(consumed) < self.PRODUCERS * self.PER_PRODUCER:
                item = queue.get(timeout=20.0)
                if item is None:
                    return
                consumed.append(item)

        consumer = threading.Thread(target=consume)
        consumer.start()
        self._hammer(queue, produce)
        consumer.join(timeout=30.0)
        assert not consumer.is_alive()
        # every (producer, seq) arrived exactly once, in per-producer order
        assert len(consumed) == self.PRODUCERS * self.PER_PRODUCER
        assert len(set(consumed)) == len(consumed)
        for pid in range(self.PRODUCERS):
            sequence = [i for p, i in consumed if p == pid]
            assert sequence == sorted(sequence)

    def test_reject_policy_never_exceeds_capacity(self):
        capacity = 4
        queue = BoundedRequestQueue(capacity=capacity)

        def produce(pid):
            admitted = 0
            for i in range(self.PER_PRODUCER):
                try:
                    queue.put((pid, i), timeout=0)
                except QueueFullError:
                    continue
                admitted += 1
                assert len(queue) <= capacity
            return admitted

        admitted = sum(self._hammer(queue, produce))
        # accounting stays exact: everything admitted is still there
        assert admitted == len(queue) <= capacity
        drained = 0
        while queue.get_nowait() is not None:
            drained += 1
        assert drained == admitted


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_microbatch_limits(self):
        scheduler = MicroBatchScheduler(max_batch_size=3, max_wait_ms=10.0)
        assert not scheduler.full(2)
        assert scheduler.full(3)
        assert scheduler.deadline(100.0) == pytest.approx(100.010)

    def test_batch_of_one(self):
        assert MicroBatchScheduler(1, 0.0).full(1)

    def test_zero_wait_never_waits(self):
        scheduler = MicroBatchScheduler(5, 0.0)
        assert scheduler.deadline(42.0) == pytest.approx(42.0)

    def test_microbatch_name_builds_from_options(self, sgc, split,
                                                 condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="microbatch",
                           scheduler_options={"max_batch_size": 3,
                                              "max_wait_ms": 0.0})
        assert isinstance(runtime.scheduler, MicroBatchScheduler)
        assert (runtime.scheduler.max_batch_size,
                runtime.scheduler.max_wait_ms) == (3, 0.0)

    def test_default_is_microbatch_with_its_defaults(self, sgc, split,
                                                     condensed):
        runtime = _runtime(sgc, split, condensed, "original")
        default = MicroBatchScheduler()
        assert isinstance(runtime.scheduler, MicroBatchScheduler)
        assert (runtime.scheduler.max_batch_size,
                runtime.scheduler.max_wait_ms) == (default.max_batch_size,
                                                   default.max_wait_ms)

    def test_instance_passes_through(self, sgc, split, condensed):
        scheduler = MicroBatchScheduler(2, 0.0)
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=scheduler)
        assert runtime.scheduler is scheduler

    def test_other_scheduler_names_rejected(self, sgc, split, condensed):
        with pytest.raises(ServingError, match="microbatch"):
            _runtime(sgc, split, condensed, "original",
                     scheduler="immediate")

    def test_validation(self):
        with pytest.raises(ServingError):
            MicroBatchScheduler(max_batch_size=0)
        with pytest.raises(ServingError):
            MicroBatchScheduler(max_wait_ms=-1.0)


# ----------------------------------------------------------------------
# Runtime parity: micro-batched streams == InductiveServer on the merge
# ----------------------------------------------------------------------
class TestRuntimeParity:
    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_stream_matches_engine(self, sgc, split, condensed, deployment,
                                   batch_mode):
        runtime = _runtime(sgc, split, condensed, deployment,
                           scheduler=MicroBatchScheduler(4, 0.0),
                           batch_mode=batch_mode)
        stream = _stream(split.incremental_batch("test"), 8, 2)
        futures = [runtime.submit(request) for request in stream]
        assert runtime.run_pending() == 8
        served = np.vstack([future.result() for future in futures])

        # the scheduler groups FIFO into fours; serving each group, merged
        # by the scipy oracle, through the naive engine (the uncached
        # frozen reference on the synthetic deployment) must give
        # bitwise-identical logits
        base = split.original if deployment == "original" else None
        cond = condensed if deployment == "synthetic" else None
        naive = InductiveServer(sgc, deployment, base, cond)
        expected = []
        for start in range(0, 8, 4):
            merged = _oracle_merge([task.batch for task in
                                    stream[start:start + 4]],
                                   split.original.num_nodes)
            logits, _, _ = naive.serve_batch(merged, batch_mode)
            expected.append(logits)
        assert np.array_equal(served, np.vstack(expected))

    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_merge_matches_the_scipy_oracle(self, sgc, split, condensed,
                                            deployment, batch_mode):
        runtime = _runtime(sgc, split, condensed, deployment,
                           scheduler=MicroBatchScheduler(8, 0.0),
                           batch_mode=batch_mode)
        source = split.incremental_batch("test")
        width = split.original.num_nodes
        batches = _awkward_batches(source, width, appended=2)
        runtime.ingest(GraphDelta(add_features=source.features[8:10],
                                  add_labels=source.labels[8:10]))
        with runtime._serve_lock:
            runtime._apply_pending_deltas()  # the base is now width + 2
        requests = [runtime._build_request(ServeTask(b)) for b in batches]
        merged = runtime._merged_task(requests).batch
        oracle = _oracle_merge(batches, width + 2)
        pairs = [(merged.incremental, oracle.incremental)]
        if batch_mode == "graph":
            pairs.append((merged.intra, oracle.intra))
        else:
            assert merged.intra is None  # node mode never reads it
        for got, want in pairs:
            got = canonical_csr(got, want.shape, name="merged")
            want = canonical_csr(want, want.shape, name="oracle")
            assert got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(merged.features, oracle.features)

        futures = [runtime.submit(ServeTask(b)) for b in batches]
        assert runtime.run_pending() == 4
        expected, _, _ = runtime.prepared.serve_batch(oracle, batch_mode)
        assert np.array_equal(np.vstack([f.result() for f in futures]),
                              expected)

    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_caller_arrays_are_never_written(self, sgc, split, condensed,
                                             deployment, batch_mode):
        source = split.incremental_batch("test")
        batches = _awkward_batches(source, split.original.num_nodes, 0)
        before = _snapshot(batches)
        runtime = _runtime(sgc, split, condensed, deployment,
                           scheduler=MicroBatchScheduler(8, 0.0),
                           batch_mode=batch_mode)
        futures = [runtime.submit(ServeTask(b)) for b in batches]
        runtime.run_pending()  # one merged group
        for batch in batches:  # and each one alone
            futures.append(runtime.submit(ServeTask(batch)))
            runtime.run_pending()
            runtime.prepared.serve_batch(batch, batch_mode)
        assert all(f.result().shape == (2, split.num_classes)
                   for f in futures)
        assert _snapshot(batches) == before

    def test_single_node_submit(self, sgc, split, condensed, raw_task):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(1, 0.0))
        batch = split.incremental_batch("test").subset(np.array([0]))
        # 1-D features, no intra: admission canonicalises both
        future = runtime.submit(raw_task(batch.features[0],
                                         batch.incremental))
        runtime.run_pending()
        logits = future.result()
        assert logits.shape == (1, split.num_classes)
        record = future.record
        assert record.batch_size == 1
        assert record.num_nodes == 1


class TestRequestIsolation:
    """On a synthetic SGC deployment the frozen operator never
    re-normalizes the base around batch-mates, so a node-mode reply is
    the same alone as inside a micro-batch."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reply_alone_equals_reply_in_a_micro_batch(
            self, sgc, split, condensed, isolation_requests,
            assert_isolated, data):
        requests = isolation_requests(data, split.incremental_batch("test"))
        runtime = _runtime(sgc, split, condensed, "synthetic",
                           scheduler=MicroBatchScheduler(8, 0.0),
                           batch_mode="node")
        for task in ("embed", "predict"):
            alone = []
            for request in requests:
                future = runtime.submit(ServeTask(request, task=task))
                assert runtime.run_pending() == 1
                alone.append(future.result())
            futures = [runtime.submit(ServeTask(request, task=task))
                       for request in requests]
            assert runtime.run_pending() == len(requests)
            assert_isolated(task, alone, [f.result() for f in futures])


# ----------------------------------------------------------------------
# Accounting, overflow, lifecycle
# ----------------------------------------------------------------------
class TestRuntimeBehaviour:
    def test_unknown_batch_mode_rejected(self, sgc, split, condensed):
        with pytest.raises(InferenceError, match="^batch_mode must be 'graph' "
                                                 "or 'node', got 'edge'$"):
            _runtime(sgc, split, condensed, "synthetic", batch_mode="edge")

    def test_stats_accounting(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(3, 0.0))
        stream = _stream(split.incremental_batch("val"), 6, 1)
        for request in stream:
            runtime.submit(request)
        runtime.run_pending()
        stats = runtime.stats()
        assert stats.requests == 6
        assert stats.nodes == 6
        assert stats.batches == 2
        assert stats.mean_batch_requests == pytest.approx(3.0)
        assert stats.latency_p50 <= stats.latency_p95 <= stats.latency_p99
        assert stats.queue_wait_mean >= 0.0
        assert stats.compute_mean > 0.0
        assert stats.throughput_rps > 0.0
        payload = stats.as_dict()
        assert payload["requests"] == 6
        assert payload["latency_p95_ms"] >= payload["latency_p50_ms"]

    def test_stats_before_any_request(self, sgc, split, condensed):
        # an idle runtime reports zeroes instead of crashing — and keeps
        # the rejection count visible when the queue sheds everything
        runtime = _runtime(sgc, split, condensed, "original",
                           queue_capacity=1)
        stats = runtime.stats()
        assert stats.requests == 0
        assert stats.throughput_rps == 0.0
        first, second = _stream(split.incremental_batch("val"), 2, 1)
        runtime.submit(first, timeout=0)
        # rejected: capacity 1, nothing drained yet
        runtime.submit(second, timeout=0)
        stats = runtime.stats()
        assert stats.requests == 0
        assert stats.rejected == 1

    def test_reject_overflow_fails_future(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           queue_capacity=2)
        stream = _stream(split.incremental_batch("val"), 3, 1)
        futures = [runtime.submit(request, timeout=0) for request in stream]
        assert futures[2].done()
        with pytest.raises(ServingError):
            futures[2].result()
        runtime.run_pending()
        assert futures[0].result().shape[0] == 1
        assert runtime.stats().rejected == 1

    def test_threaded_lifecycle(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="microbatch",
                           scheduler_options={"max_batch_size": 4,
                                              "max_wait_ms": 1.0})
        stream = _stream(split.incremental_batch("test"), 10, 1)
        with runtime:
            futures = [runtime.submit(request) for request in stream]
            results = [future.result(timeout=30.0) for future in futures]
        assert all(r.shape == (1, split.num_classes) for r in results)
        assert runtime.stats().requests == 10
        # after stop the queue refuses new work, and so does a restart —
        # a stopped runtime cannot be silently revived with a closed queue
        with pytest.raises(ServingError):
            runtime.submit(stream[0])
        with pytest.raises(ServingError):
            runtime.start()

    def test_idle_threaded_runtime_sleeps_until_work_arrives(
            self, sgc, split, condensed):
        # the serving loop has no poll clock: idle, it runs no iteration,
        # and an ingested delta wakes it without any request traffic
        runtime = _runtime(sgc, split, condensed, "original")
        steps = []
        step = runtime.step

        def counted(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        runtime.step = counted
        source = split.incremental_batch("test")
        with runtime:
            time.sleep(0.3)
            assert steps == []
            report = runtime.ingest(GraphDelta(
                add_features=source.features[:2],
                add_labels=source.labels[:2])).result(timeout=1.0)
            assert report.appended == 2
            assert len(steps) == 1

    def test_failed_batch_propagates_to_futures(self, sgc, split, condensed,
                                                monkeypatch):
        # A serve-time failure must surface through every co-batched
        # future and the `failed` counter — and must not kill the loop.
        runtime = _runtime(sgc, split, condensed, "original")
        good = ServeTask(split.incremental_batch("val").subset(np.array([0])))
        monkeypatch.setattr(
            runtime.prepared, "serve_batch",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        future = runtime.submit(good)
        runtime.run_pending()
        assert future.done()
        with pytest.raises(RuntimeError):
            future.result()
        assert runtime.stats().failed == 1
        # the loop survives: a well-formed request still serves
        monkeypatch.undo()
        ok = runtime.submit(good)
        runtime.run_pending()
        assert ok.result().shape == (1, split.num_classes)

    def test_submit_validation(self, sgc, split, condensed, raw_task):
        runtime = _runtime(sgc, split, condensed, "original")
        n = split.original.num_nodes
        with pytest.raises(ServingError):
            runtime.submit(raw_task(np.zeros((0, split.original.feature_dim)),
                                    sp.csr_matrix((0, n))))
        with pytest.raises(ServingError):
            # malformed feature dim is rejected at admission, before it
            # could poison a coalesced batch
            runtime.submit(raw_task(
                np.zeros((1, split.original.feature_dim + 1)),
                sp.csr_matrix((1, n))))
        with pytest.raises(ServingError):
            runtime.submit(raw_task(np.zeros((1, split.original.feature_dim)),
                                    sp.csr_matrix((1, n + 3))))
        with pytest.raises(ServingError):
            runtime.submit(raw_task(np.zeros((2, split.original.feature_dim)),
                                    sp.csr_matrix((2, n)),
                                    intra=sp.csr_matrix((3, 3))))
        assert len(runtime.queue) == 0

    def test_warm_base_passthrough(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original")
        warm = runtime.warm_base()
        assert warm.shape == (split.original.num_nodes, split.num_classes)

    def test_warm_base_waits_for_the_serve_lock(self, sgc, split, condensed):
        """The serving loop applies deltas under the serve lock, so a
        warm-base read must not run beside one."""
        import threading

        runtime = _runtime(sgc, split, condensed, "original")
        results = []
        reader = threading.Thread(
            target=lambda: results.append(runtime.warm_base()))
        with runtime._serve_lock:
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and results == []
        reader.join(timeout=30.0)
        assert not reader.is_alive()
        assert np.array_equal(results[0], runtime.prepared.warm_base())

    def test_dropped_runtime_frees_its_deployment_without_gc(self, sgc, split,
                                                             condensed):
        """The runtime holds no reference cycle, so dropping it frees the
        prepared caches at once, even with the cyclic collector off."""
        import gc
        import weakref

        runtime = _runtime(sgc, split, condensed, "original")
        runtime.submit(ServeTask(split.incremental_batch("test").subset(
            np.arange(2))))
        runtime.stop()
        prepared = weakref.ref(runtime.prepared)
        gc.disable()
        try:
            del runtime
            assert prepared() is None
        finally:
            gc.enable()

    def test_threaded_stop_serves_every_admitted_request(self, sgc, split,
                                                         condensed):
        """stop() on a running loop serves what is still queued: every
        future resolves and stats() counts each request once."""
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(2, 0.0))
        stream = _stream(split.incremental_batch("test"), 6, 1)
        runtime.start()
        futures = [runtime.submit(request) for request in stream]
        runtime.stop()
        assert all(future.done() for future in futures)
        assert all(future.result(timeout=1.0).shape == (1, split.num_classes)
                   for future in futures)
        stats = runtime.stats()
        assert (stats.requests, stats.failed, stats.rejected) == (6, 0, 0)

    def test_second_stop_changes_nothing(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original")
        future = runtime.submit(ServeTask(split.incremental_batch("test")
                                          .subset(np.arange(2))))
        runtime.stop()
        runtime.stop()
        assert future.result(timeout=1.0).shape == (2, split.num_classes)
        assert runtime.stats().requests == 1

    def test_stopped_runtime_refuses_without_counting(self, sgc, split,
                                                      condensed):
        # a refused submit raises to its caller and never reaches stats()
        runtime = _runtime(sgc, split, condensed, "original")
        runtime.stop()
        with pytest.raises(ServingError):
            runtime.submit(_stream(split.incremental_batch("test"), 1, 1)[0])
        stats = runtime.stats()
        assert (stats.requests, stats.failed, stats.rejected) == (0, 0, 0)
        assert len(runtime.queue) == 0

    def test_replay_returns_errors_for_failed_requests(self, sgc, split,
                                                       condensed,
                                                       monkeypatch):
        # a failed micro-batch must not abort the replay harness: its
        # requests come back as their exception, served ones keep logits
        from repro.serving import replay
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(2, 0.0),
                           queue_capacity=2)
        serve_task = runtime.prepared.serve_task
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ServingError("first micro-batch fails")
            return serve_task(*args, **kwargs)

        monkeypatch.setattr(runtime.prepared, "serve_task", fail_first)
        stream = _stream(split.incremental_batch("val"), 5, 1)
        results = replay(runtime, stream, timeout=10.0)
        assert len(results) == 5
        served = [r for r in results if isinstance(r, np.ndarray)]
        failed = [r for r in results if isinstance(r, ServingError)]
        assert len(served) == 3 and len(failed) == 2
        assert all("first micro-batch" in str(error) for error in failed)
        assert runtime.stats().failed == len(failed)

    def test_replay_exceeding_queue_capacity_without_thread(self, sgc, split,
                                                            condensed):
        # regression: with a queue smaller than the stream and no
        # consumer thread, replay used to deadlock in queue.put
        from repro.serving import replay
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(2, 0.0),
                           queue_capacity=3)
        stream = _stream(split.incremental_batch("val"), 8, 1)
        results = replay(runtime, stream, timeout=10.0)
        assert len(results) == 8
        assert runtime.stats().requests == 8


class TestMergeRequests:
    def test_block_structure(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original")
        stream = _stream(split.incremental_batch("test"), 2, 3)
        requests = [runtime._build_request(r) for r in stream]
        merged = merge_requests(requests)
        assert merged.num_nodes == 6
        assert merged.incremental.shape == (6, split.original.num_nodes)
        intra = merged.intra.toarray()
        # cross-request blocks must stay empty
        assert not intra[:3, 3:].any()
        assert not intra[3:, :3].any()

    def test_plain_batches_without_intra(self, split):
        source = split.incremental_batch("test")
        batches = [source.subset(np.arange(0, 2)), source.subset(np.arange(2, 5))]
        batches[0] = IncrementalBatch(features=batches[0].features,
                                      incremental=batches[0].incremental,
                                      intra=None, labels=batches[0].labels)
        merged = merge_requests(batches)
        intra = merged.intra.toarray()
        assert intra.shape == (5, 5)
        assert not intra[:2].any() and not intra[:, :2].any()
        assert np.array_equal(intra[2:, 2:], batches[1].intra.toarray())
        assert np.array_equal(merged.incremental.toarray(),
                              source.incremental[:5].toarray())

    def test_width_mismatch_is_a_serving_error(self, split, pad_incremental):
        source = split.incremental_batch("test")
        narrow = source.subset(np.arange(2))
        wide = pad_incremental(source.subset(np.arange(2, 4)),
                               split.original.num_nodes + 3)
        with pytest.raises(ServingError, match="base widths"):
            merge_requests([narrow, wide])


class TestRequestAccounting:
    def test_latency_covers_a_slow_merge(self, sgc, split, condensed,
                                         monkeypatch):
        """A micro-batch's compute time is its wall span, merge included."""
        runtime = _runtime(sgc, split, condensed, "synthetic",
                           batch_mode="node")
        merged_task = runtime._merged_task

        def slow(requests):
            time.sleep(0.005)
            return merged_task(requests)

        monkeypatch.setattr(runtime, "_merged_task", slow)
        future = runtime.submit(_stream(split.incremental_batch("test"),
                                        1, 2)[0])
        runtime.run_pending()
        assert future.result().shape == (2, split.num_classes)
        assert future.record.compute_seconds >= 0.005
        assert future.record.latency_seconds >= 0.005
        assert runtime.stats().latency_p50 >= 0.005
        assert runtime.stats().compute_mean >= 0.005

    @pytest.mark.parametrize("outcome, expected", [
        ("served", (4, 0, 0)),
        ("failed", (0, 4, 0)),
        ("rejected", (1, 0, 3)),
    ])
    def test_each_outcome_is_counted_once(self, sgc, split, condensed,
                                          monkeypatch, outcome, expected):
        """stats() is the runtime's one accounting: each submitted
        request lands in exactly one of requests/failed/rejected."""
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler=MicroBatchScheduler(2, 0.0),
                           queue_capacity=1 if outcome == "rejected" else 8)
        if outcome == "failed":
            monkeypatch.setattr(
                runtime.prepared, "serve_batch",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        futures = [runtime.submit(request, timeout=0) for request in
                   _stream(split.incremental_batch("val"), 4, 1)]
        runtime.run_pending()
        assert all(future.done() for future in futures)
        stats = runtime.stats()
        assert (stats.requests, stats.failed, stats.rejected) == expected
        assert sum(expected) == len(futures)


@pytest.fixture
def containers(monkeypatch):
    """Counts scipy CSR/CSC and COO constructions."""
    import scipy.sparse._compressed as compressed
    import scipy.sparse._coo as coo
    counts = {"compressed": 0, "coo": 0}

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)

    counting(compressed._cs_matrix, "compressed")
    counting(coo._coo_base, "coo")
    return counts


class TestRequestPathContainers:
    """A predict through the runtime builds sparse containers only at
    admission and merge: the request kernel multiplies raw CSR arrays.
    A burst of 8 merges its incremental blocks into one container, and
    graph mode its intra blocks into a second."""

    @pytest.mark.parametrize("batch_mode, deployment, burst, expected", (
        ("node", "synthetic", 1, 1), ("node", "synthetic", 8, 9),
        ("node", "original", 1, 1), ("node", "original", 8, 9),
        ("graph", "synthetic", 1, 1), ("graph", "synthetic", 8, 10),
        ("graph", "original", 1, 1), ("graph", "original", 8, 10)))
    def test_container_count(self, sgc, split, condensed, batch_mode,
                             deployment, burst, expected, containers):
        runtime = _runtime(sgc, split, condensed, deployment,
                           scheduler=MicroBatchScheduler(8, 0.0),
                           batch_mode=batch_mode)
        stream = _stream(split.incremental_batch("test"), 9, 2)
        runtime.submit(stream[0])
        runtime.run_pending()  # warm every lazy cache first
        containers.update(compressed=0, coo=0)
        futures = [runtime.submit(task) for task in stream[1:1 + burst]]
        assert runtime.run_pending() == burst
        assert all(f.result() is not None for f in futures)
        # the dataset's blocks are unsorted: admission copies each once
        assert containers == {"compressed": expected, "coo": 0}

    def test_canonical_predict_builds_no_container(self, sgc, split,
                                                   condensed, containers):
        runtime = _runtime(sgc, split, condensed, "synthetic",
                           batch_mode="node")
        stream = _stream(split.incremental_batch("test"), 2, 2)
        runtime.submit(stream[0])
        runtime.run_pending()  # warm every lazy cache first
        canonical = stream[1].batch.incremental.copy()
        canonical.sort_indices()
        task = ServeTask(IncrementalBatch(
            features=stream[1].batch.features, incremental=canonical,
            intra=stream[1].batch.intra, labels=stream[1].batch.labels))
        containers.update(compressed=0, coo=0)
        future = runtime.submit(task)
        assert runtime.run_pending() == 1
        assert future.result().shape == (2, split.num_classes)
        assert containers == {"compressed": 0, "coo": 0}

    def test_canonical_input_is_admitted_without_a_copy(self, sgc, split,
                                                        condensed, containers):
        runtime = _runtime(sgc, split, condensed, "synthetic",
                           batch_mode="node")
        task = _stream(split.incremental_batch("test"), 1, 2)[0]
        canonical = task.batch.incremental.copy()
        canonical.sort_indices()
        containers.update(compressed=0, coo=0)
        request = runtime._build_request(ServeTask(IncrementalBatch(
            features=task.batch.features, incremental=canonical,
            intra=task.batch.intra, labels=task.batch.labels)))
        assert request.incremental is canonical
        assert request.intra is None
        assert containers == {"compressed": 0, "coo": 0}
        runtime._build_request(task)
        assert containers == {"compressed": 1, "coo": 0}
