"""Task-typed serving: ServeTask, executors, wire v3, one admission
type per tier, invalidation."""

from __future__ import annotations

import importlib
import inspect
import io
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.stream import make_delta_trace
from repro.serving import (
    BoundedRequestQueue,
    EmbeddingIndex,
    GatewayClient,
    PreparedDeployment,
    ServeTask,
    ServingFleet,
    ServingGateway,
    ServingRuntime,
    SCORERS,
    auc_score,
    evaluate_link_holdout,
    score_pairs,
    split_requests,
    tasked_requests,
)
from repro.serving.embeddings import TASKS
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_serve_request,
    encode_frame,
    encode_serve_request,
    read_frame_from,
)
from repro.telemetry import stage_span


# ----------------------------------------------------------------------
# Shared artifacts (module-cached: deploys and process spawns are slow)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def task_bundle():
    return api.deploy("tiny-sim", "mcond", 9, profile="quick",
                      deployment="original")


@pytest.fixture(scope="module")
def task_artifact(task_bundle, tmp_path_factory):
    root = tmp_path_factory.mktemp("task-artifacts")
    return task_bundle.save(root / "original.npz", layout="mmap")


@pytest.fixture(scope="module")
def task_requests(task_bundle):
    return split_requests(api.evaluation_batch(task_bundle), 8, 2)


@pytest.fixture(scope="module")
def prepared(task_bundle):
    return task_bundle.prepare()


@pytest.fixture(scope="module")
def task_fleet(task_artifact):
    with ServingFleet(task_artifact, 1, batch_mode="node") as fleet:
        yield fleet


@pytest.fixture(scope="module")
def task_gateway(task_artifact):
    fleet = ServingFleet(task_artifact, 1, batch_mode="node")
    gw = ServingGateway(fleet, max_inflight=64, owns_fleet=True)
    gw.start()
    yield gw
    gw.close()


def _toy_batch(n: int = 3, d: int = 4, total: int = 10) -> IncrementalBatch:
    rng = np.random.default_rng(5)
    return IncrementalBatch(
        features=rng.standard_normal((n, d)),
        incremental=sp.random(n, total, density=0.4, random_state=3,
                              format="csr", dtype=np.float64),
        intra=sp.random(n, n, density=0.5, random_state=4, format="csr",
                        dtype=np.float64),
        labels=np.full(n, -1, dtype=np.int64))


# ----------------------------------------------------------------------
# The request object
# ----------------------------------------------------------------------
class TestServeTask:
    def test_registry_covers_all_tasks(self):
        assert set(TASKS) == {"predict", "embed", "link_score", "topk"}
        for executor, description in TASKS.values():
            assert callable(executor) and description

    def test_rejects_non_batch(self):
        with pytest.raises(ServingError, match="IncrementalBatch"):
            ServeTask(batch=np.zeros((2, 3)))

    def test_rejects_unknown_task(self):
        with pytest.raises(ServingError, match="unknown serving task"):
            ServeTask(batch=_toy_batch(), task="classify")

    def test_rejects_bad_scorer_and_k(self):
        with pytest.raises(ServingError, match="scorer"):
            ServeTask(batch=_toy_batch(), scorer="cosine")
        with pytest.raises(ServingError, match="k >= 1"):
            ServeTask(batch=_toy_batch(), task="topk", k=0)

    def test_link_score_needs_well_formed_pairs(self):
        with pytest.raises(ServingError, match="needs pairs"):
            ServeTask(batch=_toy_batch(), task="link_score")
        with pytest.raises(ServingError, match=r"\(p, 2\)"):
            ServeTask(batch=_toy_batch(), task="link_score",
                      pairs=np.zeros((4, 3), dtype=np.int64))

    def test_result_rows(self):
        batch = _toy_batch(n=3)
        pairs = np.array([[0, 1], [2, 4], [1, 0], [0, 9], [2, 2]])
        assert ServeTask(batch=batch).result_rows() == 3
        link = ServeTask(batch=batch, task="link_score", pairs=pairs)
        assert link.result_rows() == 5
        assert link.pairs.dtype == np.int64

    def test_carries_no_routing_key(self):
        # the fleet round-robins over identical replicas: nothing reads a key
        with pytest.raises(TypeError, match="key"):
            ServeTask(batch=_toy_batch(), key="user-7")

    def test_tasked_requests_wraps_every_batch(self, task_requests):
        tasks = tasked_requests(task_requests, "topk", k=3)
        assert all(t.task == "topk" and t.k == 3 for t in tasks)
        link = tasked_requests(task_requests, "link_score", num_pairs=4)
        assert all(t.pairs.shape == (4, 2) for t in link)


# ----------------------------------------------------------------------
# Executors against PreparedDeployment
# ----------------------------------------------------------------------
class TestExecutors:
    def test_predict_is_bitwise_identical_to_serve_batch(self, prepared,
                                                         task_requests):
        batch = task_requests[0]
        direct, _, _ = prepared.serve_batch(batch, "node")
        tasked, _, _ = prepared.serve_task(
            ServeTask(batch=batch), batch_mode="node")
        assert np.array_equal(direct, tasked)

    def test_embed_matches_embed_batch(self, prepared, task_requests):
        batch = task_requests[0]
        direct, _, _ = prepared.embed_batch(batch, "node")
        tasked, _, _ = prepared.serve_task(
            ServeTask(batch=batch, task="embed"), batch_mode="node")
        assert np.array_equal(direct, tasked)
        assert tasked.shape[0] == batch.num_nodes

    def test_link_score_combines_cached_endpoints(self, prepared,
                                                  task_requests):
        batch = task_requests[1]
        pairs = np.array([[0, 0], [1, 3], [0, 7], [1, 1]])
        for scorer in ("dot", "hadamard"):
            task = ServeTask(batch=batch, task="link_score", pairs=pairs,
                             scorer=scorer)
            scores, _, _ = prepared.serve_task(task, batch_mode="node")
            request_side, _, _ = prepared.embed_batch(batch, "node")
            expected = score_pairs(request_side[pairs[:, 0]],
                                   prepared.base_embeddings()[pairs[:, 1]],
                                   scorer)
            assert np.array_equal(scores, expected)

    def test_topk_packs_exact_cosine_neighbors(self, prepared,
                                               task_requests):
        batch, k = task_requests[2], 4
        rows, _, _ = prepared.serve_task(
            ServeTask(batch=batch, task="topk", k=k), batch_mode="node")
        assert rows.shape == (batch.num_nodes, 2 * k)
        queries, _, _ = prepared.embed_batch(batch, "node")

        def unit(m):
            norms = np.linalg.norm(m, axis=1, keepdims=True)
            return np.where(norms > 0, m / np.where(norms == 0, 1, norms),
                            0.0)

        sims = unit(queries) @ unit(prepared.base_embeddings()).T
        for row in range(batch.num_nodes):
            order = np.argsort(-sims[row], kind="stable")[:k]
            assert np.array_equal(rows[row, :k].astype(np.int64), order)
            assert np.array_equal(rows[row, k:], sims[row][order])


class TestEmbeddingIndex:
    def test_topk_rejects_oversized_k(self):
        index = EmbeddingIndex(np.eye(3))
        with pytest.raises(ServingError, match="only 3 base nodes"):
            index.topk(np.eye(3), 4)
        matrix = np.random.default_rng(3).standard_normal((6, 4))
        ids, scores = EmbeddingIndex(matrix).topk(matrix, 3)
        # a row is its own nearest neighbour, at cosine 1
        assert np.array_equal(ids[:, 0], np.arange(6))
        assert np.allclose(scores[:, 0], 1.0)

    def test_auc_sanity(self):
        labels = np.array([1, 1, 0, 0])
        assert auc_score(np.array([4.0, 3.0, 2.0, 1.0]), labels) == 1.0
        assert auc_score(np.array([1.0, 2.0, 3.0, 4.0]), labels) == 0.0
        assert auc_score(np.zeros(4), labels) == 0.5
        with pytest.raises(ServingError, match="positive and negative"):
            auc_score(np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_link_holdout_beats_chance(self, pubmed_original_bundle, scorer):
        """Held-out inductive edges outscore sampled non-edges: AUC clears
        the 0.5 chance line by the 0.05 margin on 64 + 64 pairs."""
        link = evaluate_link_holdout(
            pubmed_original_bundle.prepare(),
            api.evaluation_batch(pubmed_original_bundle),
            num_pairs=64, scorer=scorer, batch_mode="node", seed=0)
        assert (link["num_positive"], link["num_negative"]) == (64, 64)
        assert link["auc"] >= 0.55


# ----------------------------------------------------------------------
# One request type per tier: anything but a ServeTask fails at admission
# ----------------------------------------------------------------------
@pytest.fixture(params=["inline", "threaded", "fleet", "client"])
def tier(request, task_bundle):
    """``(surface, settle, counters)`` per admission surface: ``settle``
    waits out one accepted request, ``counters()`` returns
    ``(served, shed, errors, queue depth)``."""
    if request.param in ("inline", "threaded"):
        runtime = api.open_runtime(task_bundle, batch_mode="node")
        settled = 0

        def settle(future):
            nonlocal settled
            if request.param == "inline":
                runtime.run_pending()
            assert future.result(timeout=30.0) is not None
            settled += 1
            # the serving loop books the batch just after resolving it;
            # poll the accounting rather than contend for the loop's lock,
            # which the loop re-takes too fast for a waiter to ever win
            deadline = time.monotonic() + 30.0
            while (runtime.stats().requests < settled
                   and time.monotonic() < deadline):
                time.sleep(0.001)

        def counters():
            stats = runtime.stats()
            return (stats.requests, stats.rejected, stats.failed,
                    len(runtime.queue))

        if request.param == "threaded":
            runtime.start()
        yield runtime, settle, counters
        runtime.stop()
    elif request.param == "fleet":
        task_fleet = request.getfixturevalue("task_fleet")

        def counters():
            stats = task_fleet.stats()
            return (stats["completed"], 0, stats["failed"],
                    task_fleet.queue_depth())

        yield (task_fleet,
               lambda future: future.result(timeout=60.0), counters)
    else:
        task_gateway = request.getfixturevalue("task_gateway")
        with GatewayClient(task_gateway.host, task_gateway.port) as client:
            def counters():
                stats = client.stats()
                assert stats["offered"] == (stats["served"] + stats["shed"]
                                            + stats["errors"])
                return (stats["served"], stats["shed"], stats["errors"],
                        stats["inflight"])

            yield (client,
                   lambda request_id: client.drain(1)[request_id].ok,
                   counters)


def test_serve_task_has_no_operator_option():
    """The operator is the deployment's, never a per-request choice."""
    with pytest.raises(TypeError):
        ServeTask(_toy_batch(), frozen=True)


@pytest.mark.parametrize("target, removed", [
    (ServingRuntime, ("metrics", "trace_capacity", "slow_trace_ms",
                      "telemetry", "overflow")),
    (BoundedRequestQueue, ("overflow",)),
    (api.open_runtime, ("queue_capacity", "overflow")),
    (api.deploy, ("model_options",)),
    (ServingFleet, ("metrics", "trace_capacity", "slow_trace_ms",
                    "start_method", "max_retries", "start_timeout",
                    "latency_window", "telemetry", "reset_latencies",
                    "mmap")),
    (ServingGateway, ("metrics", "trace_capacity", "slow_trace_ms",
                      "telemetry")),
    (api.open_fleet, ("start_method", "slow_trace_ms", "telemetry",
                      "mmap")),
    (api.open_gateway, ("start_method", "slow_trace_ms", "telemetry",
                        "mmap", "start")),
    (ServingRuntime.submit, ("trace",)),
    (ServingRuntime.stop, ("drain",)),
    (ServingGateway.close, ("drain",)),
    (stage_span, ("histogram",)),
    (PreparedDeployment, ("attach_embedding_index",)),
    (EmbeddingIndex, ("save", "load")),
], ids=["ServingRuntime", "BoundedRequestQueue", "open_runtime", "deploy",
        "ServingFleet", "ServingGateway",
        "open_fleet", "open_gateway", "ServingRuntime.submit",
        "ServingRuntime.stop", "ServingGateway.close", "stage_span",
        "PreparedDeployment", "EmbeddingIndex"])
def test_serving_tiers_take_no_fixed_settings(target, removed):
    """Settings no caller varied are constants, not parameters, and
    measurement nothing reads has no switch or reset method.  A replica
    always memory-maps its one artifact, and the top-k index is built in
    process: nothing saves, loads or attaches a second file."""
    names = set(inspect.signature(target).parameters) | set(dir(target))
    assert not set(removed) & names


@pytest.mark.parametrize("name", [
    "save_embedding_index", "sidecar_index_path", "TASKS", "FactoryEntry",
    "register_task", "make_task"])
def test_sidecar_and_task_registry_names_are_gone(name):
    """The sidecar API and the task registry left the public surface:
    the task set is a plain table in ``repro.serving.embeddings``."""
    for module in ("repro.api", "repro.serving"):
        assert not hasattr(importlib.import_module(module), name), module


class TestOnlyServeTaskAdmits:
    @pytest.mark.parametrize("attempt, error", [
        (lambda surface, batch: surface.submit(batch), ServingError),
        (lambda surface, batch: surface.submit(batch.features,
                                               batch.incremental),
         (ServingError, TypeError)),
        (lambda surface, batch: surface.submit(ServeTask(batch),
                                               mode="node"), TypeError),
        (lambda surface, batch: surface.submit(ServeTask(batch),
                                               frozen=True), TypeError),
        (lambda surface, batch: surface.submit(ServeTask(batch),
                                               key="user-1"), TypeError),
    ], ids=["bare-batch", "raw-arrays", "mode=", "frozen=", "key="])
    def test_rejected_before_anything_is_enqueued(self, tier, task_requests,
                                                  attempt, error):
        surface, settle, counters = tier
        batch = task_requests[0]
        served, shed, errors, _ = counters()
        settle(surface.submit(ServeTask(batch)))
        # offered (1) == served + shed + errors, nothing left queued
        before = counters()
        assert before == (served + 1, shed, errors, 0)
        with pytest.raises(error):
            attempt(surface, batch)
        assert counters() == before


# ----------------------------------------------------------------------
# Wire protocol v3 (the only version)
# ----------------------------------------------------------------------
def _round_trip_frame(frame):
    header, payload = read_frame_from(io.BytesIO(frame).read)
    return decode_serve_request(header, payload)


class TestProtocolVersions:
    @pytest.mark.parametrize("version", [PROTOCOL_VERSION])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_decode_matrix_defaults_to_predict(self, version, encoding):
        batch = _toy_batch()
        frame = encode_serve_request(3, ServeTask(batch), encoding=encoding)
        assert frame[4] == version == 3  # the one version frames carry
        task = _round_trip_frame(frame).task
        assert (task.task, task.mode, task.k, task.pairs,
                task.scorer) == ("predict", None, 10, None, "dot")
        assert np.array_equal(task.batch.features, batch.features)
        assert np.array_equal(task.batch.incremental.toarray(),
                              batch.incremental.toarray())

    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_v2_task_fields_round_trip(self, encoding):
        batch = _toy_batch()
        pairs = np.array([[0, 1], [2, 7]], dtype=np.int64)
        topk = _round_trip_frame(encode_serve_request(
            4, ServeTask(batch=batch, task="topk", k=3, trace_id="t-1"),
            encoding=encoding)).task
        assert (topk.task, topk.k, topk.trace_id) == ("topk", 3, "t-1")
        link = _round_trip_frame(encode_serve_request(
            5, ServeTask(batch=batch, task="link_score", pairs=pairs,
                         scorer="hadamard"), encoding=encoding)).task
        assert (link.task, link.scorer) == ("link_score", "hadamard")
        assert np.array_equal(link.pairs, pairs)

    def test_unknown_task_rejected_at_decode(self):
        frame = encode_serve_request(8, ServeTask(batch=_toy_batch()))
        header, payload = read_frame_from(io.BytesIO(frame).read)
        header["task"] = "classify"
        with pytest.raises(ProtocolError, match="unknown serving task"):
            decode_serve_request(header, payload)

    def test_unknown_task_gets_structured_error_reply(self, task_gateway):
        """A bad task draws an error reply; the connection stays usable."""
        batch = _toy_batch(n=2)
        with GatewayClient(task_gateway.host, task_gateway.port) as client:
            frame = encode_serve_request(1, ServeTask(batch=batch))
            header, payload = read_frame_from(io.BytesIO(frame).read)
            header["task"] = "classify"
            client._sock.sendall(encode_frame(header, payload))
            reply = client._read_reply()
            assert reply.status == "error"
            assert "unknown serving task" in reply.error
            assert client.ping().status == "pong"


# ----------------------------------------------------------------------
# Every task through runtime, fleet, and gateway — one surface
# ----------------------------------------------------------------------
def _all_task_requests(batch):
    pairs = np.array([[0, 0], [1, 5], [0, 3]], dtype=np.int64)
    return [ServeTask(batch=batch),
            ServeTask(batch=batch, task="embed"),
            ServeTask(batch=batch, task="link_score", pairs=pairs),
            ServeTask(batch=batch, task="topk", k=3)]


class TestOpeners:
    def test_scheduler_built_from_limits(self, task_bundle):
        with api.open_runtime(task_bundle, batch_mode="node",
                              max_batch_size=5,
                              max_wait_ms=1.5) as runtime:
            assert (runtime.scheduler.max_batch_size,
                    runtime.scheduler.max_wait_ms) == (5, 1.5)

    @pytest.mark.parametrize("opener, keyword", [
        ("open_runtime", "scheduler"),
        ("open_fleet", "router"),
        ("open_gateway", "router"),
        ("open_gateway", "shed_options"),
        ("open_gateway", "scale_options"),
    ])
    def test_removed_policy_keywords_rejected(self, opener, keyword):
        # binding fails before the bundle is opened: no process starts
        with pytest.raises(TypeError, match=keyword):
            getattr(api, opener)("bundle.npz", **{keyword: None})


class TestEveryLayerServesEveryTask:
    def test_runtime(self, task_bundle, prepared, task_requests):
        batch = task_requests[3]
        with api.open_runtime(task_bundle, batch_mode="node") as runtime:
            for task in _all_task_requests(batch):
                got = runtime.submit(task).result(timeout=30.0)
                want, _, _ = prepared.serve_task(task, batch_mode="node")
                assert np.array_equal(got, want), task.task

    def test_fleet(self, task_fleet, prepared, task_requests):
        batch = task_requests[4]
        for task in _all_task_requests(batch):
            got = task_fleet.submit(task).result(timeout=60.0)
            want, _, _ = prepared.serve_task(task, batch_mode="node")
            assert np.array_equal(got, want), task.task

    def test_fleet_over_a_compressed_artifact(self, task_bundle, prepared,
                                              task_requests, tmp_path):
        # deflated members load eagerly on the replica's one mmap path
        artifact = task_bundle.save(tmp_path / "deflated.npz")
        batch = task_requests[4]
        with ServingFleet(artifact, 1, batch_mode="node") as fleet:
            for task in _all_task_requests(batch):
                got = fleet.submit(task).result(timeout=60.0)
                want, _, _ = prepared.serve_task(task, batch_mode="node")
                assert np.array_equal(got, want), task.task

    def test_gateway_socket_matches_direct_bitwise(self, task_gateway,
                                                   prepared, task_requests):
        batch = task_requests[5]
        with GatewayClient(task_gateway.host, task_gateway.port) as client:
            for task in _all_task_requests(batch):
                reply = client.serve_batch(task)
                assert reply.status == "ok"
                want, _, _ = prepared.serve_task(task, batch_mode="node")
                assert np.array_equal(reply.logits, want), task.task

    def test_runtime_merges_mixed_tasks_correctly(self, task_bundle,
                                                  prepared, task_requests):
        """Different tasks in one scheduler window never cross-batch.

        With the immediate scheduler (no merging) every mixed-task reply
        is bitwise identical to a direct serve.  Under micro-batch
        merging the exact path legitimately shifts — co-arriving nodes
        perturb the shared base normalization — so those replies are
        only held to shape and a coarse tolerance, which still catches
        a reply that demuxed the wrong rows or the wrong task.
        """
        with api.open_runtime(task_bundle, batch_mode="node",
                              max_batch_size=1,
                              max_wait_ms=0.0) as runtime:
            futures = [(task, runtime.submit(task))
                       for batch in task_requests[:3]
                       for task in _all_task_requests(batch)]
            for task, future in futures:
                want, _, _ = prepared.serve_task(task, batch_mode="node")
                assert np.array_equal(future.result(timeout=30.0), want), \
                    task.task
        with api.open_runtime(task_bundle, batch_mode="node",
                              max_batch_size=16,
                              max_wait_ms=50.0) as runtime:
            futures = [(task, runtime.submit(task))
                       for batch in task_requests[:3]
                       for task in _all_task_requests(batch)]
            for task, future in futures:
                got = future.result(timeout=30.0)
                want, _, _ = prepared.serve_task(task, batch_mode="node")
                assert got.shape == want.shape, task.task
                # topk ranks and near-zero link dots are too sensitive
                # to the merge perturbation for a numeric bound
                if task.task in ("predict", "embed"):
                    assert np.allclose(got, want, rtol=0.05, atol=0.05), \
                        task.task


# ----------------------------------------------------------------------
# apply_delta invalidation of the embedding caches
# ----------------------------------------------------------------------
class TestDeltaInvalidation:
    def test_invalidate_embeddings_drops_both_caches(self, task_bundle):
        fresh = task_bundle.prepare()
        before = fresh.base_embeddings()
        assert fresh.embedding_index() is fresh.embedding_index()
        fresh.invalidate_embeddings()
        assert fresh._base_embeddings is None
        assert fresh._embedding_index is None
        assert np.array_equal(fresh.base_embeddings(), before)

    def test_apply_delta_refreshes_stale_mmap_index(self, task_bundle,
                                                    task_requests,
                                                    pad_incremental):
        """After each delta, embed/topk answers on a deployment whose
        top-k index was built before the delta match a from-scratch
        prepare on the evolved graph — zero stale rows."""
        evolving = task_bundle.prepare()
        evolving.embedding_index()  # the pre-delta index, built in process
        batch = api.evaluation_batch(task_bundle)
        pool = batch.subset(np.arange(6))
        trace = make_delta_trace(task_bundle.base, pool, num_deltas=3,
                                 nodes_per_delta=2, edges_per_delta=3,
                                 removals_per_delta=1,
                                 updates_per_delta=1, seed=11)
        probe = task_requests[6]
        for delta in trace:
            report = evolving.apply_delta(delta)
            assert "embeddings" in report.invalidated
            fresh = PreparedDeployment(task_bundle.model(), "original",
                                       evolving.base)
            padded = pad_incremental(probe, evolving.num_base)
            task = ServeTask(batch=padded, task="topk", k=3)
            got, _, _ = evolving.serve_task(task, batch_mode="node")
            want, _, _ = fresh.serve_task(task, batch_mode="node")
            assert np.array_equal(got, want)
            got_e, _, _ = evolving.embed_batch(padded, "node")
            want_e, _, _ = fresh.embed_batch(padded, "node")
            assert np.array_equal(got_e, want_e)
