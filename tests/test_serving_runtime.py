"""ServingRuntime: micro-batching, queueing, accounting, parity."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ServingError
from repro.inference import InductiveServer
from repro.nn import make_model
from repro.registry import SCHEDULERS, make_scheduler
from repro.serving import (
    BoundedRequestQueue,
    ImmediateScheduler,
    MicroBatchScheduler,
    PreparedDeployment,
    QueueFullError,
    ServeTask,
    ServingRuntime,
    SizeCapScheduler,
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
        queue = BoundedRequestQueue(capacity=1, overflow="reject")
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b")

    def test_drop_oldest_policy(self):
        queue = BoundedRequestQueue(capacity=2, overflow="drop_oldest")
        queue.put("a")
        queue.put("b")
        evicted = queue.put("c")
        assert evicted == "a"
        assert len(queue) == 2
        assert queue.get_nowait() == "b"

    def test_block_policy_times_out(self):
        queue = BoundedRequestQueue(capacity=1, overflow="block")
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
        with pytest.raises(ServingError):
            BoundedRequestQueue(overflow="explode")


class TestBoundedQueueConcurrency:
    """Overflow policies under many producer threads (the gateway shape)."""

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
        queue = BoundedRequestQueue(capacity=4, overflow="block")
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
        queue = BoundedRequestQueue(capacity=capacity, overflow="reject")

        def produce(pid):
            admitted = 0
            for i in range(self.PER_PRODUCER):
                try:
                    queue.put((pid, i))
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

    def test_drop_oldest_policy_keeps_newest_under_contention(self):
        capacity = 4
        queue = BoundedRequestQueue(capacity=capacity, overflow="drop_oldest")

        def produce(pid):
            evicted = 0
            for i in range(self.PER_PRODUCER):
                evicted += queue.put((pid, i)) is not None
            return evicted

        evicted = sum(self._hammer(queue, produce))
        survivors = []
        while (item := queue.get_nowait()) is not None:
            survivors.append(item)
        # puts never block or fail; every item was either evicted or kept
        assert len(survivors) == capacity
        total = self.PRODUCERS * self.PER_PRODUCER
        assert evicted + len(survivors) == total
        # the queue kept late arrivals, not the opening burst
        assert all(i >= self.PER_PRODUCER - capacity
                   for _, i in survivors)


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_registry_entries(self):
        for name in ("microbatch", "immediate", "sizecap"):
            assert name in SCHEDULERS

    def test_microbatch_limits(self):
        scheduler = make_scheduler("microbatch", max_batch_size=3,
                                   max_wait_ms=10.0)
        assert isinstance(scheduler, MicroBatchScheduler)
        assert not scheduler.full(2)
        assert scheduler.full(3)
        assert scheduler.deadline(100.0) == pytest.approx(100.010)

    def test_immediate_is_batch_of_one(self):
        scheduler = make_scheduler("immediate")
        assert isinstance(scheduler, ImmediateScheduler)
        assert scheduler.full(1)

    def test_sizecap_never_waits(self):
        scheduler = make_scheduler("sizecap", max_batch_size=5)
        assert isinstance(scheduler, SizeCapScheduler)
        assert scheduler.deadline(42.0) == pytest.approx(42.0)

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
                           scheduler="sizecap", batch_mode=batch_mode,
                           scheduler_options={"max_batch_size": 4})
        stream = _stream(split.incremental_batch("test"), 8, 2)
        futures = [runtime.submit(request) for request in stream]
        assert runtime.run_pending() == 8
        served = np.vstack([future.result() for future in futures])

        # the scheduler groups FIFO into fours; serving each merged group
        # through the naive engine must give bitwise-identical logits
        base = split.original if deployment == "original" else None
        cond = condensed if deployment == "synthetic" else None
        naive = InductiveServer(sgc, deployment, base, cond, use_cache=False)
        expected = []
        for start in range(0, 8, 4):
            merged = merge_requests(
                [runtime._build_request(r) for r in stream[start:start + 4]])
            logits, _, _ = naive.serve_batch(merged, batch_mode)
            expected.append(logits)
        assert np.array_equal(served, np.vstack(expected))

    def test_single_node_submit(self, sgc, split, condensed, raw_task):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="immediate")
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


# ----------------------------------------------------------------------
# Accounting, overflow, lifecycle
# ----------------------------------------------------------------------
class TestRuntimeBehaviour:
    def test_stats_accounting(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="sizecap",
                           scheduler_options={"max_batch_size": 3})
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
                           queue_capacity=1, overflow="reject")
        stats = runtime.stats()
        assert stats.requests == 0
        assert stats.throughput_rps == 0.0
        first, second = _stream(split.incremental_batch("val"), 2, 1)
        runtime.submit(first)
        runtime.submit(second)  # rejected: capacity 1, nothing drained yet
        stats = runtime.stats()
        assert stats.requests == 0
        assert stats.rejected == 1

    def test_reject_overflow_fails_future(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           queue_capacity=2, overflow="reject")
        stream = _stream(split.incremental_batch("val"), 3, 1)
        futures = [runtime.submit(request) for request in stream]
        assert futures[2].done()
        with pytest.raises(ServingError):
            futures[2].result()
        runtime.run_pending()
        assert futures[0].result().shape[0] == 1
        assert runtime.stats().rejected == 1

    def test_drop_oldest_evicts_first(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original",
                           queue_capacity=2, overflow="drop_oldest")
        stream = _stream(split.incremental_batch("val"), 3, 1)
        futures = [runtime.submit(request) for request in stream]
        runtime.run_pending()
        with pytest.raises(ServingError):
            futures[0].result()
        assert futures[1].result() is not None
        assert futures[2].result() is not None

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

    def test_frozen_task_on_a_nonlinear_model_fails_its_future(
            self, split, raw_task):
        gcn = make_model("gcn", split.original.feature_dim,
                         split.num_classes, seed=0)
        runtime = ServingRuntime(
            PreparedDeployment(gcn, "original", split.original))
        n = split.original.num_nodes
        future = runtime.submit(raw_task(
            np.zeros((1, split.original.feature_dim)),
            sp.csr_matrix((1, n)), intra=sp.csr_matrix((1, 1)),
            frozen=True))
        runtime.run_pending()
        with pytest.raises(ServingError, match="linear propagation"):
            future.result()

    def test_frozen_tasks_serve_the_frozen_path(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "synthetic",
                           scheduler="sizecap", batch_mode="node")
        stream = [ServeTask(task.batch, frozen=True) for task in
                  _stream(split.incremental_batch("val"), 4, 1)]
        futures = [runtime.submit(request) for request in stream]
        runtime.run_pending()
        gaps = []
        for task, future in zip(stream, futures):
            # coalesced replies match row-wise up to the classifier
            # gemm's row-count sensitivity
            frozen, _, _ = runtime.prepared.serve_batch_frozen(task.batch,
                                                              "node")
            exact, _, _ = runtime.prepared.serve_batch(task.batch, "node")
            np.testing.assert_allclose(future.result(), frozen, rtol=1e-12,
                                       atol=1e-12)
            gaps.append(np.abs(future.result() - exact).max())
        assert max(gaps) > 1e-9  # the approximation, not the exact path

    def test_warm_base_passthrough(self, sgc, split, condensed):
        runtime = _runtime(sgc, split, condensed, "original")
        warm = runtime.warm_base()
        assert warm.shape == (split.original.num_nodes, split.num_classes)

    def test_replay_returns_none_for_shed_requests(self, sgc, split,
                                                   condensed):
        # load shedding must not abort the replay harness: shed requests
        # come back as None, served ones keep their logits
        from repro.serving import replay
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="sizecap", queue_capacity=2,
                           overflow="reject",
                           scheduler_options={"max_batch_size": 2})
        stream = _stream(split.incremental_batch("val"), 5, 1)
        results = replay(runtime, stream, timeout=10.0)
        assert len(results) == 5
        served = [r for r in results if r is not None]
        shed = [r for r in results if r is None]
        assert served and shed
        assert runtime.stats().rejected == len(shed)

    def test_replay_exceeding_queue_capacity_without_thread(self, sgc, split,
                                                            condensed):
        # regression: with a 'block' queue smaller than the stream and no
        # consumer thread, replay used to deadlock in queue.put
        from repro.serving import replay
        runtime = _runtime(sgc, split, condensed, "original",
                           scheduler="sizecap", queue_capacity=3,
                           scheduler_options={"max_batch_size": 2})
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
