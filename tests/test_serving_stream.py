"""Streaming deployment: apply_delta parity and runtime ingest."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.stream import GraphDelta, StreamingGraph, make_delta_trace
from repro.nn import make_model
from repro.serving import (MicroBatchScheduler, PreparedDeployment, ServeTask,
                           ServingRuntime)


@pytest.fixture()
def sgc(tiny_split):
    return make_model("sgc", tiny_split.original.feature_dim,
                      tiny_split.num_classes, seed=0)


def _random_delta(stream: StreamingGraph, batch, cursor: int, rng,
                  *, append: bool = True, symmetric: bool = True):
    """One random-but-valid delta against the stream's current state; a
    directed one (``symmetric=False``) changes single entries, so the
    graph drifts away from symmetric."""
    n = stream.num_nodes
    add_edges = rng.integers(0, n, size=(3, 2))
    add_edges = add_edges[add_edges[:, 0] != add_edges[:, 1]]
    rows, vals = [add_edges], [np.ones(add_edges.shape[0])]
    add_features = add_labels = None
    if append:
        sel = np.arange(cursor, cursor + 2)
        add_features = batch.features[sel]
        add_labels = batch.labels[sel]
        inc = batch.incremental[sel].tocoo()
        rows.append(np.column_stack([inc.row + n, inc.col]))
        vals.append(inc.data)
    adjacency = stream.graph.adjacency
    # a symmetric removal needs the entry in both directions
    pool = (sp.triu(adjacency.minimum(adjacency.T), k=1) if symmetric
            else sp.triu(adjacency, k=1) + sp.tril(adjacency, k=-1)).tocoo()
    picks = rng.choice(pool.nnz, size=2, replace=False)
    remove = np.column_stack([pool.row[picks], pool.col[picks]])
    added = np.vstack(rows)
    lo = np.minimum(added[:, 0], added[:, 1])
    hi = np.maximum(added[:, 0], added[:, 1])
    keys = (np.minimum(remove[:, 0], remove[:, 1]) * (n + 2)
            + np.maximum(remove[:, 0], remove[:, 1]))
    keep = ~np.isin(lo * (n + 2) + hi, keys)
    update_index = np.sort(rng.choice(n, size=3, replace=False))
    return GraphDelta(
        add_features=add_features, add_labels=add_labels,
        add_edges=added[keep],
        add_weights=np.concatenate(vals)[keep],
        remove_edges=remove,
        update_index=update_index,
        update_features=stream.graph.features[update_index]
        + rng.standard_normal((3, batch.features.shape[1])) * 0.1,
        symmetric=symmetric)


def _assert_prepared_parity(evolved: PreparedDeployment,
                            fresh: PreparedDeployment,
                            batch, batch_mode: str):
    assert evolved.num_base == fresh.num_base
    assert np.array_equal(evolved.base_loops.data, fresh.base_loops.data)
    assert np.array_equal(evolved.base_loops.indices,
                          fresh.base_loops.indices)
    assert np.array_equal(evolved.base_loops.indptr, fresh.base_loops.indptr)
    assert np.array_equal(evolved.base_features, fresh.base_features)
    assert evolved._raw_nnz == fresh._raw_nnz
    op_a, op_b = evolved.base_operator(), fresh.base_operator()
    assert np.array_equal(op_a.data, op_b.data)
    assert np.array_equal(op_a.indices, op_b.indices)
    for hop_a, hop_b in zip(evolved.propagated_base_features(),
                            fresh.propagated_base_features()):
        assert np.array_equal(hop_a, hop_b)
    assert np.array_equal(evolved.warm_base(), fresh.warm_base())
    assert np.array_equal(evolved._inv_sqrt_degrees(),
                          fresh._inv_sqrt_degrees())
    inc = batch.incremental.tocsr()
    probe = IncrementalBatch(
        features=batch.features,
        incremental=sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                                  shape=(inc.shape[0], evolved.num_base)),
        intra=batch.intra, labels=batch.labels)
    logits_a, _, memory_a = evolved.serve_batch(probe, batch_mode)
    logits_b, _, memory_b = fresh.serve_batch(probe, batch_mode)
    assert np.array_equal(logits_a, logits_b)
    assert memory_a == memory_b
    frozen_a, _, _ = evolved.serve_batch_frozen(probe, batch_mode)
    frozen_b, _, _ = fresh.serve_batch_frozen(probe, batch_mode)
    assert np.array_equal(frozen_a, frozen_b)


class TestApplyDeltaParity:
    """Property suite: random delta sequences vs from-scratch prepare()."""

    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_random_sequence_bitwise_parity(self, tiny_split, sgc,
                                            batch_mode, seed):
        rng = np.random.default_rng(seed)
        batch = tiny_split.incremental_batch("test")
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        reference = StreamingGraph(tiny_split.original.copy())
        probe = batch.subset(np.arange(20, 24))
        cursor = 0
        for step in range(5):
            delta = _random_delta(reference, batch, cursor, rng,
                                  append=step % 2 == 0)
            cursor += delta.num_new_nodes
            report = prepared.apply_delta(delta)
            assert report.mode in ("incremental", "rebuild")
            reference.apply(delta)
            fresh = PreparedDeployment(sgc, "original", reference.graph)
            _assert_prepared_parity(prepared, fresh, probe, batch_mode)

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    def test_reads_between_appends_stay_exact(self, tiny_split, k_hops):
        """Serving materializes the standalone scale vector of the
        receptive-field path; deltas keep it current row-wise, so every
        read equals a fresh prepare() and the naive Eq. 3 path bit for
        bit."""
        from repro.inference import InductiveServer
        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0, k_hops=k_hops)
        rng = np.random.default_rng(k_hops)
        batch = tiny_split.incremental_batch("test")
        prepared = PreparedDeployment(model, "original", tiny_split.original)
        reference = StreamingGraph(tiny_split.original.copy())
        inc = batch.subset(np.arange(20, 26)).incremental.tocsr()

        def probe():
            return IncrementalBatch(
                features=batch.features[20:26],
                incremental=sp.csr_matrix(
                    (inc.data, inc.indices, inc.indptr),
                    shape=(6, prepared.num_base)),
                intra=batch.intra[20:26][:, 20:26], labels=batch.labels[20:26])

        prepared.serve_batch(probe(), "graph")
        for step in range(6):
            delta = _random_delta(reference, batch, 2 * step, rng)
            # alternate the two refresh strategies: row-wise, from scratch
            report = prepared.apply_delta(
                delta, staleness_threshold=float(step % 2))
            assert report.mode == ("incremental" if step % 2 else "rebuild")
            reference.apply(delta)
            fresh = PreparedDeployment(model, "original", reference.graph)
            naive = InductiveServer(model, "original", reference.graph)
            assert np.array_equal(prepared._inv_sqrt_degrees(),
                                  fresh._inv_sqrt_degrees())
            for batch_mode in ("graph", "node"):
                logits, _, memory = prepared.serve_batch(probe(), batch_mode)
                for other in (fresh, naive):
                    expected, _, other_memory = other.serve_batch(
                        probe(), batch_mode)
                    assert np.array_equal(logits, expected)
                    assert memory == other_memory
        assert prepared.num_base == tiny_split.original.num_nodes + 12

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    def test_long_mixed_direction_sequence_stays_exact(self, tiny_split,
                                                       k_hops):
        """Forty incremental refreshes, symmetric and directed deltas
        interleaved, each bitwise equal to a fresh prepare()."""
        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0, k_hops=k_hops)
        rng = np.random.default_rng(10 + k_hops)
        batch = tiny_split.incremental_batch("test")
        prepared = PreparedDeployment(model, "original", tiny_split.original)
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        reference = StreamingGraph(tiny_split.original.copy())
        probe = batch.subset(np.arange(60, 64))
        cursor = 0
        for step in range(40):
            delta = _random_delta(reference, batch, cursor, rng,
                                  append=step % 2 == 0,
                                  symmetric=step % 3 != 1)
            cursor += delta.num_new_nodes
            report = prepared.apply_delta(delta, staleness_threshold=1.0)
            assert report.mode == "incremental"
            reference.apply(delta)
            fresh = PreparedDeployment(model, "original", reference.graph)
            _assert_prepared_parity(prepared, fresh, probe,
                                    ("graph", "node")[step % 2])
        adjacency = reference.graph.adjacency
        assert (adjacency != adjacency.T).nnz  # the directed deltas landed

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    @pytest.mark.parametrize("between", (1, 3, 7))
    def test_caches_catch_up_after_deltas_between_reads(self, tiny_split,
                                                        k_hops, between):
        """Deltas drop the operator and the hop arrays; the next read
        rebuilds them bitwise equal to a fresh prepare() however many
        deltas it covers."""
        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0, k_hops=k_hops)
        rng = np.random.default_rng(100 * k_hops + between)
        batch = tiny_split.incremental_batch("test")
        prepared = PreparedDeployment(model, "original", tiny_split.original)
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        reference = StreamingGraph(tiny_split.original.copy())
        probe = batch.subset(np.arange(60, 64))
        cursor = 0
        for read in range(2):
            for step in range(between):
                delta = _random_delta(reference, batch, cursor, rng,
                                      append=step % 2 == 0,
                                      symmetric=step % 3 != 1)
                cursor += delta.num_new_nodes
                report = prepared.apply_delta(delta, staleness_threshold=1.0)
                assert report.mode == "incremental"
                assert report.refreshed == ("degrees",)
                # the first delta drops the hops; later ones find none
                assert ("propagated" in report.invalidated) == (step == 0)
                reference.apply(delta)
            assert prepared._propagated is None
            if read:
                # the hop refresh rebuilds the operator it needs itself
                prepared.propagated_base_features()
            fresh = PreparedDeployment(model, "original", reference.graph)
            _assert_prepared_parity(prepared, fresh, probe,
                                    ("graph", "node")[read])

    def test_warm_delta_runs_no_hop_product(self, tiny_split, sgc,
                                            monkeypatch):
        """A delta on fully warm caches multiplies nothing: the operator and
        the hop arrays are dropped for the next read to rebuild."""
        from scipy.sparse._base import _spbase

        batch = tiny_split.incremental_batch("test")
        trace = make_delta_trace(tiny_split.original, batch, num_deltas=3,
                                 nodes_per_delta=2, edges_per_delta=3,
                                 removals_per_delta=2, updates_per_delta=2,
                                 seed=4)
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        products = []
        dispatch = _spbase._matmul_dispatch

        def counting_dispatch(self, other):
            products.append(self.shape)
            return dispatch(self, other)

        monkeypatch.setattr(_spbase, "_matmul_dispatch", counting_dispatch)
        reports = [prepared.apply_delta(delta, staleness_threshold=1.0)
                   for delta in trace]
        assert products == []
        assert {r.mode for r in reports} == {"incremental"}
        # the first delta drops what was held; the rest find nothing held
        assert reports[0].invalidated == ("warm_logits", "operator",
                                          "propagated")
        assert [r.invalidated for r in reports[1:]] == [()] * 2
        assert prepared._base_operator is None
        assert prepared._propagated is None
        prepared.propagated_base_features()
        assert len(products) == sgc.k_hops  # one rebuild for three deltas

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    def test_incremental_delta_sparse_constructions(self, tiny_split,
                                                    k_hops, monkeypatch):
        """An incremental original-graph delta with warm caches builds four
        CSR matrices whatever K is: the stream's rebuilt-rows and appended
        blocks and its spliced adjacency, and the spliced ``base_loops``.
        The operator and the hops are rebuilt by their next read."""
        from scipy.sparse._compressed import _cs_matrix

        model = make_model("sgc", tiny_split.original.feature_dim,
                           tiny_split.num_classes, seed=0, k_hops=k_hops)
        batch = tiny_split.incremental_batch("test")
        trace = make_delta_trace(tiny_split.original, batch, num_deltas=5,
                                 nodes_per_delta=2, edges_per_delta=3,
                                 removals_per_delta=2, updates_per_delta=2,
                                 seed=k_hops)
        prepared = PreparedDeployment(model, "original", tiny_split.original)
        prepared.base_operator()
        prepared.propagated_base_features()
        prepared.warm_base()
        prepared.apply_delta(trace[0], staleness_threshold=1.0)  # opens the stream
        constructed = []
        init = _cs_matrix.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_cs_matrix, "__init__", counting_init)
        for delta in trace[1:]:
            constructed.clear()
            report = prepared.apply_delta(delta, staleness_threshold=1.0)
            assert report.mode == "incremental"
            assert len(constructed) == 4

    def test_forced_rebuild_matches_incremental(self, tiny_split, sgc):
        batch = tiny_split.incremental_batch("test")
        trace = make_delta_trace(tiny_split.original, batch, num_deltas=4,
                                 nodes_per_delta=2, edges_per_delta=3,
                                 removals_per_delta=1, updates_per_delta=2,
                                 seed=9)
        incremental = PreparedDeployment(sgc, "original",
                                         tiny_split.original)
        rebuild = PreparedDeployment(sgc, "original", tiny_split.original)
        for prepared in (incremental, rebuild):
            prepared.base_operator()
            prepared.propagated_base_features()
        for delta in trace:
            inc_report = incremental.apply_delta(delta)
            reb_report = rebuild.apply_delta(delta, staleness_threshold=0.0)
            assert reb_report.mode == "rebuild"
            assert inc_report.num_base == reb_report.num_base
        assert np.array_equal(incremental.base_operator().data,
                              rebuild.base_operator().data)
        for hop_a, hop_b in zip(incremental.propagated_base_features(),
                                rebuild.propagated_base_features()):
            assert np.array_equal(hop_a, hop_b)

    def test_zero_delta_is_noop(self, tiny_split, sgc):
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        operator_before = prepared.base_operator()
        report = prepared.apply_delta(GraphDelta())
        assert report.mode == "noop"
        assert report.appended == 0
        assert prepared.base_operator() is operator_before

    def test_lazy_caches_stay_lazy(self, tiny_split, sgc):
        """A delta on a cold deployment must not materialize warm caches."""
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        report = prepared.apply_delta(GraphDelta(add_edges=[[0, 5]]))
        assert report.mode == "incremental"
        assert report.refreshed == ()
        assert prepared._base_operator is None
        assert prepared._propagated is None

    def test_invalid_threshold_rejected(self, tiny_split, sgc):
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        with pytest.raises(ServingError, match="staleness"):
            prepared.apply_delta(GraphDelta(), staleness_threshold=1.5)
        with pytest.raises(ServingError, match="GraphDelta"):
            prepared.apply_delta("not a delta")

    def test_synthetic_append_extends_mapping(self, tiny_split, sgc,
                                              tiny_condensed):
        prepared = PreparedDeployment(sgc, "synthetic", None, tiny_condensed)
        batch = tiny_split.incremental_batch("test")
        rows_before = prepared.mapping.shape[0]
        report = prepared.apply_delta(
            GraphDelta(add_features=batch.features[:3]))
        assert report.mode == "append-mapping"
        assert prepared.mapping.shape[0] == rows_before + 3
        # a request citing a streamed node id attaches (with zero mass)
        inc = sp.csr_matrix(
            (np.ones(2), ([0, 0], [1, rows_before + 1])),
            shape=(1, rows_before + 3))
        request = IncrementalBatch(features=batch.features[:1],
                                   incremental=inc,
                                   intra=sp.csr_matrix((1, 1)),
                                   labels=batch.labels[:1])
        logits, _, _ = prepared.serve_batch(request, "node")
        assert logits.shape[0] == 1

    def test_synthetic_edge_delta_rejected(self, sgc, tiny_condensed):
        prepared = PreparedDeployment(sgc, "synthetic", None, tiny_condensed)
        with pytest.raises(ServingError, match="recondensation"):
            prepared.apply_delta(GraphDelta(add_edges=[[0, 1]]))


class TestRuntimeIngest:
    def test_ingest_interleaves_with_serving(self, tiny_split, sgc):
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        trace = make_delta_trace(tiny_split.original, batch, num_deltas=2,
                                 nodes_per_delta=2, edges_per_delta=2,
                                 seed=3)
        futures, ingests = [], []
        for i in range(4):
            futures.append(runtime.submit(
                ServeTask(batch.subset(np.array([10 + i])))))
            if i % 2 == 0:
                ingests.append(runtime.ingest(trace[i // 2]))
            runtime.run_pending()
        for future in futures:
            assert future.result(timeout=5.0).shape[0] == 1
        for ingest in ingests:
            assert ingest.result(timeout=5.0).appended == 2
        stats = runtime.stream_stats()
        assert stats["deltas"] == 2
        assert stats["appended_nodes"] == 4
        assert runtime.prepared.num_base == tiny_split.original.num_nodes + 4

    def test_stale_width_requests_still_serve(self, tiny_split, sgc):
        """Requests admitted before an append serve after it lands."""
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        future = runtime.submit(ServeTask(batch.subset(np.array([0]))))
        runtime.ingest(GraphDelta(add_features=batch.features[1:3],
                                  add_labels=batch.labels[1:3]))
        runtime.run_pending()  # delta applies first, then the request
        assert future.result(timeout=5.0).shape[0] == 1
        assert runtime.prepared.num_base == tiny_split.original.num_nodes + 2

    def test_mixed_width_batch_serves(self, tiny_split, sgc, raw_task):
        """Regression: one micro-batch coalescing a pre-append request
        with a post-append request must widen per request, not crash
        merge_requests for the whole batch."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(4, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        old_width = batch.subset(np.array([0]))
        # admitted at width n
        future_a = runtime.submit(ServeTask(old_width))
        runtime.ingest(GraphDelta(add_features=batch.features[1:3],
                                  add_labels=batch.labels[1:3]))
        with runtime._serve_lock:
            runtime._apply_pending_deltas()  # base is now n + 2 wide
        wide_inc = sp.csr_matrix(
            (np.ones(1), ([0], [n + 1])), shape=(1, n + 2))
        future_b = runtime.submit(raw_task(batch.features[3], wide_inc))
        served = runtime.step()
        assert served == 2  # both coalesced into one batch
        assert future_a.result(timeout=5.0).shape[0] == 1
        assert future_b.result(timeout=5.0).shape[0] == 1

    def test_request_citing_pending_delta_ids_admitted(self, tiny_split,
                                                       sgc, raw_task):
        """Regression: ingest-then-submit (the documented pattern) must
        admit a request citing the just-ingested nodes even before the
        serving loop has applied the delta."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        runtime.ingest(GraphDelta(add_features=batch.features[:2],
                                  add_labels=batch.labels[:2]))
        inc = sp.csr_matrix((np.ones(1), ([0], [n])), shape=(1, n + 2))
        # cites an appended id
        future = runtime.submit(raw_task(batch.features[2], inc))
        runtime.run_pending()
        assert future.result(timeout=5.0).shape[0] == 1
        assert runtime.prepared.num_base == n + 2
        # beyond the promised width is still malformed
        too_wide = sp.csr_matrix((1, n + 50))
        with pytest.raises(ServingError, match="incremental adjacency"):
            runtime.submit(raw_task(batch.features[2], too_wide))

    def test_ingest_rejects_non_delta_and_closed_runtime(self, tiny_split,
                                                         sgc):
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0))
        with pytest.raises(ServingError, match="GraphDelta"):
            runtime.ingest("nope")
        runtime.stop()
        with pytest.raises(ServingError, match="stopped"):
            runtime.ingest(GraphDelta())

    def test_never_streamed_runtime_keeps_strict_widths(self, tiny_split,
                                                        sgc, raw_task):
        """Regression: stale-width tolerance must not weaken validation on
        a frozen runtime — a too-narrow incremental is malformed there."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        with pytest.raises(ServingError, match="incremental adjacency"):
            runtime.submit(raw_task(batch.features[0],
                                    sp.csr_matrix((1, n - 5))))

    def test_width_floor_is_opening_width(self, tiny_split, sgc, raw_task):
        """After appends, valid widths span [opening, current] — never
        below what the runtime opened with."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        runtime.ingest(GraphDelta(add_features=batch.features[:2],
                                  add_labels=batch.labels[:2]))
        runtime.run_pending()
        ok = runtime.submit(raw_task(batch.features[0],
                                     sp.csr_matrix((1, n))))
        runtime.run_pending()
        assert ok.result(timeout=5.0).shape[0] == 1
        with pytest.raises(ServingError, match="incremental adjacency"):
            runtime.submit(raw_task(batch.features[0],
                                    sp.csr_matrix((1, n - 1))))

    def test_stop_drains_queued_requests_and_pending_ingest(self, tiny_split,
                                                           sgc):
        """Regression: stop() on a stepped runtime serves every queued
        request and applies every ingested delta, so no future is left
        pending and stats() accounts for every request."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        futures = [runtime.submit(ServeTask(batch.subset(np.array([i]))))
                   for i in range(3)]
        ingest = runtime.ingest(GraphDelta(add_features=batch.features[:1],
                                           add_labels=batch.labels[:1]))
        runtime.stop()
        assert all(future.done() for future in futures)
        assert all(future.result(timeout=1.0).shape[0] == 1
                   for future in futures)
        assert runtime.stats().requests == 3
        assert ingest.done()
        assert ingest.result(timeout=1.0).appended == 1
        assert runtime.prepared.num_base == n + 1

    def test_failed_delta_fails_future_not_runtime(self, tiny_split, sgc):
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(1, 0.0),
                                 batch_mode="node")
        bad = GraphDelta(remove_edges=[[0, 1], [0, 2]])
        # make sure at least one of those edges does not exist
        adj = tiny_split.original.adjacency
        assert adj[0, 1] == 0 or adj[0, 2] == 0
        future = runtime.ingest(bad)
        runtime.step()
        with pytest.raises(Exception):
            future.result(timeout=5.0)
        batch = tiny_split.incremental_batch("test")
        ok = runtime.submit(ServeTask(batch.subset(np.array([0]))))
        runtime.run_pending()
        assert ok.result(timeout=5.0).shape[0] == 1

    def test_failed_promised_width_fails_only_that_request(self, tiny_split,
                                                           sgc, raw_task):
        """Regression: a request citing the width promised by a delta that
        then fails to apply must fail alone — not poison the whole
        micro-batch with a merge-shape error."""
        n = tiny_split.original.num_nodes
        prepared = PreparedDeployment(sgc, "original", tiny_split.original)
        runtime = ServingRuntime(prepared, MicroBatchScheduler(2, 0.0),
                                 batch_mode="node")
        batch = tiny_split.incremental_batch("test")
        adj = tiny_split.original.adjacency
        assert adj[0, 1] == 0 or adj[0, 2] == 0  # the delta must fail
        bad = GraphDelta(add_features=batch.features[:2],
                         add_labels=batch.labels[:2],
                         remove_edges=[[0, 1], [0, 2]])
        delta_future = runtime.ingest(bad)
        wide = sp.csr_matrix((np.ones(1), ([0], [n])), shape=(1, n + 2))
        poisoned = runtime.submit(raw_task(batch.features[2], wide))
        ok = runtime.submit(ServeTask(batch.subset(np.array([3]))))
        runtime.run_pending()
        with pytest.raises(Exception):
            delta_future.result(timeout=5.0)
        with pytest.raises(ServingError, match="failed to apply"):
            poisoned.result(timeout=5.0)
        assert ok.result(timeout=5.0).shape[0] == 1
        # the width-check failure is counted once, beside the one served
        assert runtime.stats().failed == 1
        assert runtime.stats().requests == 1

    def test_open_runtime_leaves_derived_caches_cold(self):
        # exact serving reads neither cache and the first delta drops
        # both, so open_runtime warms neither
        from repro import api
        bundle = api.deploy("tiny-sim", "whole", 0, deployment="original",
                            profile="quick", seed=7)
        runtime = api.open_runtime(bundle)
        assert runtime.prepared._base_operator is None
        assert runtime.prepared._propagated is None

    def test_cold_first_delta_reports_like_a_warm_one(self):
        # the report counts the rows a delta affects whether or not the
        # degree vector is held yet
        from repro import api
        bundle = api.deploy("tiny-sim", "whole", 0, deployment="original",
                            profile="quick", seed=7)
        batch = api.evaluation_batch(bundle)
        delta = make_delta_trace(
            bundle.base, batch.subset(np.arange(2)), num_deltas=1,
            nodes_per_delta=2, edges_per_delta=3, removals_per_delta=1,
            updates_per_delta=2, seed=3)[0]
        cold, warm = api.open_runtime(bundle), api.open_runtime(bundle)
        warm.warm_base()
        reports = []
        for runtime in (cold, warm):
            runtime.staleness_threshold = 0.0
            future = runtime.ingest(delta)
            runtime.run_pending()
            reports.append(future.result(timeout=5.0))
        cold_report, warm_report = reports
        assert (cold_report.refreshed, warm_report.refreshed) == (
            (), ("degrees",))
        assert cold_report.affected_rows == warm_report.affected_rows > 0
        assert cold_report.mode == warm_report.mode == "rebuild"
