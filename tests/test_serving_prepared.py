"""PreparedDeployment: bitwise parity with the naive serving path."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError, InferenceError, ServingError
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.inference import InductiveServer
from repro.nn import make_model
from repro.serving import PreparedDeployment


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


def _joint_oracle(model, condensed, batch, batch_mode):
    """Eq. 11 from its definition: attach the batch through ``aM``,
    normalize the joint graph, propagate, classify the new rows."""
    from repro.graph.incremental import attach_to_synthetic
    from repro.graph.ops import symmetric_normalize
    from repro.tensor.tensor import Tensor, no_grad
    model.eval()
    attached = attach_to_synthetic(
        condensed.sparse_adjacency(), condensed.features, batch.incremental,
        batch.features, condensed.mapping,
        batch.intra if batch_mode == "graph" else None)
    with no_grad():
        hidden = model.embed(symmetric_normalize(attached.adjacency),
                             Tensor(attached.features)).data
        return model.head(Tensor(hidden[attached.base_size:])).data


def _servers(model, deployment, split, condensed):
    base = split.original if deployment == "original" else None
    cond = condensed if deployment == "synthetic" else None
    naive = InductiveServer(model, deployment, base, cond)
    cached = PreparedDeployment(model, deployment, base, cond)
    return naive, cached


def _naive_exact(naive, batch, batch_mode):
    """``(logits, memory)`` of the uncached reference through the exact
    Eq. 3 / Eq. 11 operator (its ``serve_batch`` serves the frozen one on
    a synthetic SGC deployment)."""
    logits, _, memory = naive._serve(batch, batch_mode, frozen=False)
    return logits, memory


class TestBitwiseParity:
    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_serve_batch_parity(self, sgc, split, condensed, deployment,
                                batch_mode):
        # on the synthetic deployment both sides serve the frozen operator
        naive, cached = _servers(sgc, deployment, split, condensed)
        batch = split.incremental_batch("test")
        logits_naive, _, memory_naive = naive.serve_batch(batch, batch_mode)
        logits_cached, _, memory_cached = cached.serve_batch(batch, batch_mode)
        assert np.array_equal(logits_naive, logits_cached)  # exact, not close
        assert memory_naive == memory_cached
        if deployment == "synthetic":
            joint, _, _ = cached.serve_batch_exact(batch, batch_mode)
            assert np.array_equal(
                joint, _joint_oracle(sgc, condensed, batch, batch_mode))
            assert not np.array_equal(joint, logits_cached)

    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    def test_minibatched_run_parity(self, sgc, split, condensed, deployment):
        # evaluate() serves the exact Eq. 3 / Eq. 11 operator on every
        # deployment, one mini-batch at a time
        from repro.graph.sampling import iterate_minibatches
        naive, cached = _servers(sgc, deployment, split, condensed)
        batch = split.incremental_batch("test")
        served = [_naive_exact(naive, batch.subset(idx), "graph")
                  for idx in iterate_minibatches(batch.num_nodes, 16)]
        report = cached.evaluate(batch, batch_size=16, batch_mode="graph")
        assert report.num_batches == len(served) > 1
        assert np.array_equal(report.logits,
                              np.vstack([logits for logits, _ in served]))
        assert report.memory_bytes == int(np.mean(
            [memory for _, memory in served]))
        if deployment == "synthetic":
            first = batch.subset(np.arange(16))
            assert np.array_equal(report.logits[:16], _joint_oracle(
                sgc, condensed, first, "graph"))

    @pytest.mark.parametrize("model_name", ("gcn", "appnp"))
    def test_parity_across_architectures(self, split, condensed, model_name):
        model = make_model(model_name, split.original.feature_dim,
                           split.num_classes, seed=1)
        naive, cached = _servers(model, "synthetic", split, condensed)
        batch = split.incremental_batch("val")
        logits_naive, _, _ = naive.serve_batch(batch, "graph")
        logits_cached, _, _ = cached.serve_batch(batch, "graph")
        assert np.array_equal(logits_naive, logits_cached)

    def test_parity_on_weighted_base(self, rng):
        # Weighted adjacencies exercise the float summation-order traps
        # (pairwise reduceat degrees, scale multiplication order).
        n = 40
        dense = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
        adjacency = sp.csr_matrix(np.maximum(dense, dense.T))
        features = rng.normal(size=(n, 5))
        base = Graph(adjacency, features, rng.integers(0, 2, size=n))
        model = make_model("sgc", 5, 2, seed=0)
        batch = IncrementalBatch(
            features=rng.normal(size=(7, 5)),
            incremental=sp.csr_matrix(
                rng.random((7, n)) * (rng.random((7, n)) < 0.3)),
            intra=sp.csr_matrix(np.zeros((7, 7))),
            labels=np.zeros(7, dtype=np.int64))
        naive = InductiveServer(model, "original", base)
        cached = PreparedDeployment(model, "original", base)
        for mode in ("graph", "node"):
            logits_naive, _, mem_naive = naive.serve_batch(batch, mode)
            logits_cached, _, mem_cached = cached.serve_batch(batch, mode)
            assert np.array_equal(logits_naive, logits_cached)
            assert mem_naive == mem_cached

    def test_operator_matches_naive_structure(self, split, sgc):
        from repro.graph.ops import symmetric_normalize
        prepared = PreparedDeployment(sgc, "original", split.original)
        batch = split.incremental_batch("val")
        operator, features, _ = prepared.attach_normalize(
            batch.incremental, batch.features, batch.intra)
        naive = InductiveServer(sgc, "original", split.original)
        attached = naive.attach(batch, "graph")
        expected = symmetric_normalize(attached.adjacency)
        assert np.array_equal(expected.indptr, operator.indptr)
        assert np.array_equal(expected.indices, operator.indices)
        assert np.array_equal(expected.data, operator.data)
        assert np.array_equal(attached.features, features)


class TestFrozenPath:
    def test_isolated_request_is_exact(self, split, sgc):
        # A request with no connections at all leaves the base degrees
        # untouched, so the frozen approximation collapses to the exact path.
        prepared = PreparedDeployment(sgc, "original", split.original)
        n_base = split.original.num_nodes
        batch = IncrementalBatch(
            features=np.random.default_rng(0).normal(
                size=(3, split.original.feature_dim)),
            incremental=sp.csr_matrix((3, n_base)),
            intra=sp.csr_matrix((3, 3)),
            labels=np.zeros(3, dtype=np.int64))
        exact, _, _ = prepared.serve_batch(batch, "node")
        frozen, _, _ = prepared.serve_batch_frozen(batch, "node")
        assert np.array_equal(exact, frozen)

    def test_small_request_is_close(self, split, sgc):
        prepared = PreparedDeployment(sgc, "original", split.original)
        batch = split.incremental_batch("test").subset(np.arange(2))
        exact, _, _ = prepared.serve_batch(batch, "node")
        frozen, _, _ = prepared.serve_batch_frozen(batch, "node")
        # The approximation ignores how arrivals renormalize their base
        # neighbourhood — on a 180-node graph that costs tens of percent,
        # not orders of magnitude.  Assert same scale, bounded error.
        rel = (np.linalg.norm(exact - frozen)
               / max(np.linalg.norm(exact), 1e-12))
        assert rel < 0.5

    def test_propagated_features_cached_and_hop_count(self, split, sgc):
        prepared = PreparedDeployment(sgc, "original", split.original)
        hops = prepared.propagated_base_features()
        assert len(hops) == sgc.k_hops + 1
        assert np.array_equal(hops[0], prepared.base_features)
        assert prepared.propagated_base_features() is hops  # cached

    def test_requires_linear_propagation(self, split):
        gcn = make_model("gcn", split.original.feature_dim,
                         split.num_classes, seed=0)
        prepared = PreparedDeployment(gcn, "original", split.original)
        with pytest.raises(ServingError):
            prepared.propagated_base_features()


class TestWarmBase:
    def test_matches_standalone_forward(self, split, sgc):
        from repro.tensor.tensor import Tensor, no_grad
        prepared = PreparedDeployment(sgc, "original", split.original)
        warm = prepared.warm_base()
        sgc.eval()
        with no_grad():
            expected = sgc(prepared.base_operator(),
                           Tensor(prepared.base_features)).data
        assert np.array_equal(warm, expected)
        assert prepared.warm_base() is warm  # computed once


class TestValidation:
    def test_unknown_deployment(self, split, sgc):
        with pytest.raises(InferenceError):
            PreparedDeployment(sgc, "edge", split.original)

    def test_synthetic_requires_condensed(self, sgc):
        with pytest.raises(InferenceError):
            PreparedDeployment(sgc, "synthetic", None)

    def test_original_requires_base(self, sgc):
        with pytest.raises(InferenceError):
            PreparedDeployment(sgc, "original", None)

    def test_feature_dim_mismatch(self, split, sgc):
        prepared = PreparedDeployment(sgc, "original", split.original)
        with pytest.raises(GraphError):
            prepared.attach_normalize(
                sp.csr_matrix((1, split.original.num_nodes)),
                np.zeros((1, split.original.feature_dim + 2)))

    @pytest.mark.parametrize("method", ("serve_batch", "embed_batch",
                                        "serve_batch_frozen"))
    def test_request_feature_width_mismatch(self, split, sgc, method):
        # the frozen path validates request features like the exact one,
        # rather than failing later inside a numpy broadcast
        prepared = PreparedDeployment(sgc, "original", split.original)
        batch = IncrementalBatch(
            features=np.zeros((1, split.original.feature_dim + 2)),
            incremental=sp.csr_matrix((1, split.original.num_nodes)),
            intra=sp.csr_matrix((1, 1)),
            labels=np.zeros(1, dtype=np.int64))
        with pytest.raises(GraphError, match="feature dims differ"):
            getattr(prepared, method)(batch, "node")

    def test_incremental_shape_mismatch(self, split, sgc):
        prepared = PreparedDeployment(sgc, "original", split.original)
        with pytest.raises(GraphError):
            prepared.attach_normalize(
                sp.csr_matrix((1, 5)),
                np.zeros((1, split.original.feature_dim)))

    def test_bad_batch_mode(self, split, sgc, condensed):
        prepared = PreparedDeployment(sgc, "original", split.original)
        batch = split.incremental_batch("val")
        with pytest.raises(InferenceError):
            prepared.serve_batch(batch, "stream")


# ----------------------------------------------------------------------
# Receptive-field serving: the SGC path builds and multiplies only the
# operator rows a request can reach, and must equal Eq. 3 / Eq. 11 bitwise
# ----------------------------------------------------------------------
def _weighted_base(num_nodes=150, dim=6, seed=5):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((num_nodes, num_nodes))
                    * (rng.random((num_nodes, num_nodes)) < 0.02), k=1)
    return Graph(sp.csr_matrix(upper + upper.T),
                 rng.normal(size=(num_nodes, dim)),
                 rng.integers(0, 3, size=num_nodes))


def _weighted_batch(width, count=48, dim=6, seed=6):
    rng = np.random.default_rng(seed)
    intra = np.triu(rng.random((count, count))
                    * (rng.random((count, count)) < 0.08), k=1)
    return IncrementalBatch(
        features=rng.normal(size=(count, dim)),
        incremental=sp.csr_matrix(rng.random((count, width))
                                  * (rng.random((count, width)) < 0.03)),
        intra=sp.csr_matrix(intra + intra.T),
        labels=np.zeros(count, dtype=np.int64))


def _sgc(dim, classes, k_hops, seed=2):
    return make_model("sgc", dim, classes, seed=seed, k_hops=k_hops)


def _full_assembly(prepared, batch, batch_mode, forward=None):
    """The path every non-SGC model takes: full operator, model forward."""
    from repro.tensor.tensor import Tensor, no_grad
    prepared.model.eval()
    intra = batch.intra if batch_mode == "graph" else None
    operator, features, memory = prepared.attach_normalize(
        batch.incremental, batch.features, intra)
    with no_grad():
        out = (forward or prepared.model)(operator, Tensor(features))
    return out.data[prepared.num_base:], memory


class TestReceptiveFieldServing:
    SIZES = (0, 1, 4, 32, None)  # None: the whole batch

    @pytest.fixture(scope="class")
    def weighted(self):
        base = _weighted_base()
        return base, _weighted_batch(base.num_nodes)

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_original_equals_naive_bitwise(self, weighted, k_hops,
                                           batch_mode):
        base, batch = weighted
        model = _sgc(base.feature_dim, 3, k_hops)
        naive = InductiveServer(model, "original", base)
        prepared = PreparedDeployment(model, "original", base)
        for size in self.SIZES:
            sub = batch if size is None else batch.subset(np.arange(size))
            expected, _, memory = naive.serve_batch(sub, batch_mode)
            logits, _, served_memory = prepared.serve_batch(sub, batch_mode)
            assert np.array_equal(expected, logits), (k_hops, size)
            assert memory == served_memory

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_synthetic_equals_naive_bitwise(self, split, condensed, k_hops,
                                            batch_mode):
        # served: the frozen kernel against the uncached frozen reference;
        # the joint Eq. 11 kernel against the test-local oracle
        model = _sgc(split.original.feature_dim, split.num_classes, k_hops)
        naive = InductiveServer(model, "synthetic", None, condensed)
        prepared = PreparedDeployment(model, "synthetic", None, condensed)
        batch = split.incremental_batch("test")
        for size in self.SIZES:
            sub = batch if size is None else batch.subset(np.arange(size))
            expected, _, memory = naive.serve_batch(sub, batch_mode)
            logits, _, served_memory = prepared.serve_batch(sub, batch_mode)
            assert np.array_equal(expected, logits), (k_hops, size)
            assert memory == served_memory
            joint, _, joint_memory = prepared.serve_batch_exact(sub,
                                                                batch_mode)
            assert np.array_equal(
                joint, _joint_oracle(model, condensed, sub, batch_mode)), (
                    k_hops, size)
            assert joint_memory == memory

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    @pytest.mark.parametrize("deployment", ("original", "synthetic"))
    def test_sgc_reference_within_declared_bound(self, weighted, split,
                                                 condensed, deployment,
                                                 batch_mode, k_hops):
        # docs/precision.md, "Parity contract": the SGC reference classifies
        # only the inductive rows; against the full-shape model(op, X')[B:]
        # it is within 1e-12 of the largest logit, with the same argmax
        if deployment == "original":
            base, batch = weighted
            model = _sgc(base.feature_dim, 3, k_hops)
            cond = None
        else:
            base, batch = None, split.incremental_batch("test")
            model = _sgc(split.original.feature_dim, split.num_classes, k_hops)
            cond = condensed
        naive = InductiveServer(model, deployment, base, cond)
        full_shape = PreparedDeployment(model, deployment, base, cond)
        for size in self.SIZES[1:]:
            sub = batch if size is None else batch.subset(np.arange(size))
            # the exact reference, on the synthetic deployment too
            reference, _ = _naive_exact(naive, sub, batch_mode)
            full, _ = _full_assembly(full_shape, sub, batch_mode)
            assert reference.shape == full.shape
            assert (np.abs(reference - full).max()
                    <= 1e-12 * np.abs(full).max()), (k_hops, size)
            assert np.array_equal(reference.argmax(axis=1),
                                  full.argmax(axis=1))

    @pytest.mark.parametrize("model_name",
                             ("gcn", "graphsage", "appnp", "cheby", "mlp"))
    def test_other_references_are_the_full_forward(self, weighted,
                                                   model_name):
        base, batch = weighted
        model = make_model(model_name, base.feature_dim, 3, seed=1)
        naive = InductiveServer(model, "original", base)
        full_shape = PreparedDeployment(model, "original", base)
        sub = batch.subset(np.arange(4))
        for batch_mode in ("graph", "node"):
            reference, _, _ = naive.serve_batch(sub, batch_mode)
            assert np.array_equal(
                reference, _full_assembly(full_shape, sub, batch_mode)[0])

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    def test_request_without_neighbours(self, weighted, k_hops):
        base, batch = weighted
        model = _sgc(base.feature_dim, 3, k_hops)
        lonely = IncrementalBatch(
            features=batch.features[:3],
            incremental=sp.csr_matrix((3, base.num_nodes)),
            intra=batch.intra[:3][:, :3], labels=batch.labels[:3])
        naive = InductiveServer(model, "original", base)
        prepared = PreparedDeployment(model, "original", base)
        for batch_mode in ("graph", "node"):
            expected, _, memory = naive.serve_batch(lonely, batch_mode)
            logits, _, served_memory = prepared.serve_batch(lonely,
                                                            batch_mode)
            assert np.array_equal(expected, logits)
            assert memory == served_memory

    def test_explicit_zero_and_duplicated_entries(self, weighted):
        # raw CSR arrays may hold a column twice and a stored 0.0; the
        # naive footprint counts the summed and the zero entries alike
        base, batch = weighted
        model = _sgc(base.feature_dim, 3, 2)
        incremental = sp.csr_matrix(
            (np.array([0.5, 0.25, 0.0, 1.5, 0.75]),
             np.array([7, 7, 20, 3, 90]), np.array([0, 3, 5])),
            shape=(2, base.num_nodes))
        assert incremental.nnz == 5  # neither summed nor pruned yet
        messy = IncrementalBatch(features=batch.features[:2],
                                 incremental=incremental,
                                 intra=sp.csr_matrix((2, 2)),
                                 labels=batch.labels[:2])
        naive = InductiveServer(model, "original", base)
        prepared = PreparedDeployment(model, "original", base)
        expected, _, memory = naive.serve_batch(messy, "graph")
        logits, _, served_memory = prepared.serve_batch(messy, "graph")
        assert np.array_equal(expected, logits)
        assert memory == served_memory
        assert served_memory == _full_assembly(prepared, messy, "graph")[1]

    def test_coalesced_requests(self, weighted):
        from repro.serving.runtime import merge_requests
        base, batch = weighted
        model = _sgc(base.feature_dim, 3, 2)
        merged = merge_requests([batch.subset(np.arange(start, start + 4))
                                 for start in range(0, 32, 4)])
        naive = InductiveServer(model, "original", base)
        prepared = PreparedDeployment(model, "original", base)
        for batch_mode in ("graph", "node"):
            expected, _, _ = naive.serve_batch(merged, batch_mode)
            logits, _, _ = prepared.serve_batch(merged, batch_mode)
            assert np.array_equal(expected, logits)

    @pytest.mark.parametrize("model_name",
                             ("gcn", "graphsage", "appnp", "cheby", "mlp"))
    def test_other_models_keep_the_full_assembly(self, weighted, model_name,
                                                 monkeypatch):
        base, batch = weighted
        model = make_model(model_name, base.feature_dim, 3, seed=1)
        prepared = PreparedDeployment(model, "original", base)
        naive = InductiveServer(model, "original", base)
        calls = []
        attach = prepared.attach_normalize
        monkeypatch.setattr(
            prepared, "attach_normalize",
            lambda *args: calls.append(1) or attach(*args))
        sub = batch.subset(np.arange(4))
        logits, _, _ = prepared.serve_batch(sub, "graph")
        hidden, _, _ = prepared.embed_batch(sub, "graph")
        assert len(calls) == 2  # both went through the full operator
        assert np.array_equal(logits, naive.serve_batch(sub, "graph")[0])
        assert np.array_equal(
            hidden, _full_assembly(prepared, sub, "graph", model.embed)[0])
        # own arrays: a reply must not pin the (B+n, ·) forward output
        assert logits.base is None and hidden.base is None

    @pytest.mark.parametrize("k_hops", (1, 2, 3))
    @pytest.mark.parametrize("batch_mode", ("graph", "node"))
    def test_task_replies_unchanged(self, weighted, k_hops, batch_mode):
        # embed / link_score / topk skip the classifier gemm but must
        # still reply what the full propagation replies
        from repro.serving import ServeTask
        from repro.serving.embeddings import score_pairs
        base, batch = weighted
        model = _sgc(base.feature_dim, 3, k_hops)
        prepared = PreparedDeployment(model, "original", base)
        sub = batch.subset(np.arange(5))
        expected, memory = _full_assembly(prepared, sub, batch_mode,
                                          model.embed)
        hidden, _, served_memory = prepared.serve_task(
            ServeTask(sub, task="embed"), batch_mode=batch_mode)
        assert np.array_equal(expected, hidden)
        assert memory == served_memory
        pairs = np.array([[0, 3], [4, 100], [2, 2]])
        scores, _, _ = prepared.serve_task(
            ServeTask(sub, task="link_score", pairs=pairs),
            batch_mode=batch_mode)
        assert np.array_equal(scores, score_pairs(
            expected[pairs[:, 0]], prepared.base_embeddings()[pairs[:, 1]]))
        packed, _, _ = prepared.serve_task(ServeTask(sub, task="topk", k=3),
                                           batch_mode=batch_mode)
        assert np.array_equal(
            packed, prepared.embedding_index().packed_topk(expected, 3))

    def test_identity_block_matches_the_scipy_round_trip(self):
        from repro.graph.ops import add_self_loops
        from repro.serving.prepared import _intra_block
        for n in (0, 1, 4):
            reference = add_self_loops(sp.csr_matrix((n, n),
                                                     dtype=np.float64))
            reference.sort_indices()
            for intra in (None, sp.csr_matrix((n, n)), np.zeros((n, n))):
                block, stored = _intra_block(intra, n)
                eye = sp.csr_matrix(block, shape=(n, n))
                assert stored == 0 and eye.shape == (n, n)
                for part in ("data", "indices", "indptr"):
                    ours, theirs = getattr(eye, part), getattr(reference, part)
                    assert ours.dtype == theirs.dtype, part
                    assert np.array_equal(ours, theirs), part
        with pytest.raises(GraphError):
            _intra_block(sp.csr_matrix((3, 3)), 4)

    @pytest.fixture(scope="class")
    def large(self):
        """A 2400-node graph, a 2-hop SGC and one 4-node request."""
        rng = np.random.default_rng(3)
        num_nodes, dim = 2400, 96
        rows = rng.integers(0, num_nodes, size=6 * num_nodes)
        cols = rng.integers(0, num_nodes, size=6 * num_nodes)
        adjacency = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(num_nodes, num_nodes))
        adjacency = adjacency.maximum(adjacency.T).tocsr()
        adjacency.setdiag(0.0)
        adjacency.eliminate_zeros()
        base = Graph(adjacency, rng.normal(size=(num_nodes, dim)),
                     rng.integers(0, 8, size=num_nodes))
        request = IncrementalBatch(
            features=rng.normal(size=(4, dim)),
            incremental=sp.csr_matrix(
                (np.ones(12), (np.repeat(np.arange(4), 3),
                               rng.choice(num_nodes, 12, replace=False))),
                shape=(4, num_nodes)),
            intra=sp.csr_matrix((4, 4)), labels=np.zeros(4, dtype=np.int64))
        return base, _sgc(dim, 8, 2), request

    @staticmethod
    def _peak_bytes(call) -> int:
        import tracemalloc
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_request_allocations_stay_a_fraction_of_the_full_assembly(
            self, large):
        # guards against an O(|A|) or O(B·d) temporary creeping back in
        base, model, request = large
        prepared = PreparedDeployment(model, "original", base)

        def peak(call):
            call()  # warm: caches, lazy imports
            return self._peak_bytes(call)

        served = peak(lambda: prepared.serve_batch(request, "node"))
        full = peak(lambda: _full_assembly(prepared, request, "node"))
        # the stack + two hop results
        assert full > 3 * base.num_nodes * base.feature_dim * 8
        assert served < full / 3

    def test_predict_holds_no_base_sized_buffer(self, large):
        # the classifier reads the request's (n, d) rows alone: neither a
        # (B+n, d) operand nor a (B+n, C) product, on the first request of
        # a fresh deployment or on any later one
        base, model, request = large
        PreparedDeployment(model, "original", base).serve_batch(
            request, "node")  # lazy imports
        prepared = PreparedDeployment(model, "original", base)

        def two_requests():
            for _ in range(2):
                prepared.serve_batch(request, "node")

        bound = base.num_nodes * base.feature_dim * 8 / 4
        assert self._peak_bytes(two_requests) < bound
