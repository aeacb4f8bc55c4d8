"""Streaming graph evolution: deltas, row splicing, trace generation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import Graph
from repro.graph.ops import add_self_loops
from repro.graph.stream import (
    GraphDelta,
    StreamingGraph,
    make_delta_trace,
    splice_csr_rows,
)


def _random_graph(rng, n=60, density=0.08, d=5):
    adj = sp.random(n, n, density=density, random_state=17, format="csr")
    adj = adj.maximum(adj.T)
    adj.data[:] = rng.uniform(0.2, 2.0, adj.nnz)
    adj = adj.maximum(adj.T)
    features = rng.standard_normal((n, d))
    labels = rng.integers(0, 3, n)
    return Graph(adj, features, labels)


def _rebuilt(stream: StreamingGraph) -> Graph:
    """From-scratch canonical reconstruction of the stream's graph."""
    adj = stream.graph.adjacency.copy()
    adj.sum_duplicates()
    adj.sort_indices()
    return Graph(adj, stream.graph.features, stream.graph.labels)


class TestGraphDelta:
    def test_noop_detection(self):
        assert GraphDelta().is_noop()
        assert not GraphDelta(add_edges=[[0, 1]]).is_noop()
        assert not GraphDelta(add_features=np.zeros((1, 3))).is_noop()

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError, match="shape"):
            GraphDelta(add_edges=np.zeros((3, 3)))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            GraphDelta(add_edges=[[0, 1]], add_weights=[0.0])

    @pytest.mark.parametrize("weight", (np.nan, np.inf))
    def test_nonfinite_weights_rejected(self, weight):
        # NaN compares False against every bound, so it needs its own check
        with pytest.raises(GraphError, match="finite"):
            GraphDelta(add_edges=[[0, 1], [1, 2]], add_weights=[1.0, weight])

    def test_update_requires_both_fields(self):
        with pytest.raises(GraphError, match="together"):
            GraphDelta(update_index=[0])

    def test_duplicate_update_index_rejected(self):
        with pytest.raises(GraphError, match="unique"):
            GraphDelta(update_index=[0, 0],
                       update_features=np.zeros((2, 3)))

    def test_negative_update_index_rejected(self):
        # -1 would wrap around onto the last node's feature row
        with pytest.raises(GraphError, match="existing nodes"):
            GraphDelta(update_index=[3, -1],
                       update_features=np.zeros((2, 3)))

    def test_labels_without_features_rejected(self):
        with pytest.raises(GraphError, match="add_labels"):
            GraphDelta(add_labels=[1])


class TestStreamingGraph:
    def test_append_nodes_with_edges(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        delta = GraphDelta(add_features=rng.standard_normal((2, 5)),
                           add_labels=np.array([1, 2]),
                           add_edges=[[60, 0], [61, 3], [60, 61]])
        effect = stream.apply(delta)
        assert effect.num_nodes == 62
        assert effect.appended == 2
        new = stream.graph
        assert new.num_nodes == 62
        assert new.adjacency[60, 0] == 1.0
        assert new.adjacency[0, 60] == 1.0  # symmetric by default
        assert new.adjacency[60, 61] == 1.0
        assert new.labels[-2:].tolist() == [1, 2]
        # rows 0 and 3 were touched (gained an edge to a new node)
        assert {0, 3, 60, 61} <= set(effect.touched_rows.tolist())

    def test_add_weight_accumulates_on_existing_edge(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        coo = sp.triu(stream.graph.adjacency, k=1).tocoo()
        u, v = int(coo.row[0]), int(coo.col[0])
        before = stream.graph.adjacency[u, v]
        stream.apply(GraphDelta(add_edges=[[u, v]], add_weights=[0.5]))
        assert stream.graph.adjacency[u, v] == before + 0.5
        assert stream.graph.adjacency[v, u] == before + 0.5

    def test_duplicate_added_pairs_are_summed(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        nnz_before = stream.graph.adjacency.nnz
        free = None
        adj = stream.graph.adjacency
        for a in range(60):
            for b in range(a + 1, 60):
                if adj[a, b] == 0:
                    free = (a, b)
                    break
            if free:
                break
        stream.apply(GraphDelta(add_edges=[list(free), list(free)],
                                add_weights=[1.0, 2.0]))
        assert stream.graph.adjacency[free] == 3.0
        assert stream.graph.adjacency.nnz == nnz_before + 2

    def test_remove_edge(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        coo = sp.triu(stream.graph.adjacency, k=1).tocoo()
        u, v = int(coo.row[0]), int(coo.col[0])
        nnz = stream.graph.adjacency.nnz
        effect = stream.apply(GraphDelta(remove_edges=[[u, v]]))
        assert stream.graph.adjacency[u, v] == 0
        assert stream.graph.adjacency[v, u] == 0
        assert stream.graph.adjacency.nnz == nnz - 2  # structural removal
        assert {u, v} == set(effect.touched_rows.tolist())

    def test_remove_missing_edge_raises(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        adj = stream.graph.adjacency
        free = next((a, b) for a in range(60) for b in range(a + 1, 60)
                    if adj[a, b] == 0)
        with pytest.raises(GraphError, match="does not hold"):
            stream.apply(GraphDelta(remove_edges=[list(free)]))

    def test_add_and_remove_same_edge_conflicts(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        coo = sp.triu(stream.graph.adjacency, k=1).tocoo()
        u, v = int(coo.row[0]), int(coo.col[0])
        with pytest.raises(GraphError, match="add and remove"):
            stream.apply(GraphDelta(add_edges=[[u, v]],
                                    remove_edges=[[u, v]]))

    def test_feature_update(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        new_rows = rng.standard_normal((2, 5))
        effect = stream.apply(GraphDelta(update_index=[3, 7],
                                         update_features=new_rows))
        assert np.array_equal(stream.graph.features[[3, 7]], new_rows)
        assert effect.touched_rows.size == 0  # structure untouched
        assert set(effect.feature_rows.tolist()) == {3, 7}

    def test_noop_apply_returns_same_graph(self, rng):
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        before = stream.graph
        effect = stream.apply(GraphDelta())
        assert effect.graph is before
        assert stream.version == 0

    def test_canonical_form_after_random_deltas(self, rng):
        """Property: after any delta sequence the adjacency is canonical
        (sorted, duplicate-free) and matches a from-scratch rebuild."""
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        for step in range(8):
            n = stream.num_nodes
            add = rng.integers(0, n, size=(3, 2))
            add = add[add[:, 0] != add[:, 1]]
            delta = GraphDelta(
                add_features=rng.standard_normal((1, 5)),
                add_labels=np.array([0]),
                add_edges=np.vstack([add, [[n, rng.integers(0, n)]]]),
                update_index=[int(rng.integers(0, n))],
                update_features=rng.standard_normal((1, 5)))
            stream.apply(delta)
            adj = stream.graph.adjacency
            assert adj.has_sorted_indices
            canon = adj.copy()
            canon.sum_duplicates()
            canon.sort_indices()
            assert np.array_equal(adj.indices, canon.indices)
            assert np.array_equal(adj.data, canon.data)
            assert adj.shape == (stream.num_nodes, stream.num_nodes)
            loops = add_self_loops(adj)
            assert loops.shape[0] == stream.num_nodes

    def test_apply_leaves_the_shared_base_untouched(self, rng):
        # the stream reads a canonical base as it is, so every delta must
        # splice into fresh arrays rather than write the caller's
        graph = _random_graph(rng)
        stream = StreamingGraph(graph)
        before = graph.adjacency.copy()
        coo = sp.triu(graph.adjacency, k=1).tocoo()
        u, v = int(coo.row[0]), int(coo.col[0])
        x, y = int(coo.row[1]), int(coo.col[1])
        stream.apply(GraphDelta(add_edges=[[u, v]], add_weights=[0.5]))
        stream.apply(GraphDelta(remove_edges=[[x, y]]))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(graph.adjacency, name),
                                  getattr(before, name))

    def test_out_of_range_endpoints_rejected(self, rng):
        stream = StreamingGraph(_random_graph(rng))
        with pytest.raises(GraphError, match="out of range"):
            stream.apply(GraphDelta(add_edges=[[0, 400]]))
        with pytest.raises(GraphError, match="appended"):
            stream.apply(GraphDelta(remove_edges=[[0, 60]],
                                    add_features=np.zeros((1, 5))))


class TestSpliceCsrRows:
    def test_replace_and_append(self, rng):
        matrix = sp.random(6, 6, density=0.4, random_state=3, format="csr")
        matrix.sort_indices()
        block = sp.csr_matrix(np.array([[1.0, 0, 0, 0, 0, 0, 2.0],
                                        [0, 0, 3.0, 0, 0, 0, 0]]))
        append = sp.csr_matrix(np.array([[0, 5.0, 0, 0, 0, 0, 0]]))
        out = splice_csr_rows(matrix, np.array([1, 4]), block,
                              num_cols=7, append=append)
        assert out.shape == (7, 7)
        dense = out.toarray()
        old = matrix.toarray()
        for row in (0, 2, 3, 5):
            assert np.array_equal(dense[row, :6], old[row])
        assert dense[1, 0] == 1.0 and dense[1, 6] == 2.0
        assert dense[4, 2] == 3.0
        assert dense[6, 1] == 5.0

    def test_narrowing_rejected(self, rng):
        matrix = sp.random(4, 4, density=0.5, random_state=1, format="csr")
        with pytest.raises(GraphError, match="narrow"):
            splice_csr_rows(matrix, np.array([0]),
                            sp.csr_matrix((1, 2)), num_cols=2)

    def test_row_count_mismatch_rejected(self):
        matrix = sp.csr_matrix(np.eye(3))
        with pytest.raises(GraphError, match="rows to replace"):
            splice_csr_rows(matrix, np.array([0, 1]), sp.csr_matrix((1, 3)))

    @pytest.mark.parametrize("rows", ([2, 2], [3, 1]))
    def test_rows_must_be_strictly_increasing(self, rows):
        """A repeated row would silently drop a block row; an unsorted one
        would land block rows out of place — both are rejected."""
        matrix = sp.csr_matrix(np.eye(5))
        block = sp.csr_matrix(np.ones((2, 5)))
        with pytest.raises(GraphError, match="strictly increasing"):
            splice_csr_rows(matrix, np.array(rows), block)

    @pytest.mark.parametrize("rows, appended, widen", (
        ([0], 0, 0),            # first row
        ([7], 0, 0),            # last row
        ([3, 4, 5], 0, 0),      # adjacent rows
        ([0, 7], 2, 3),         # both ends, append, widened
        ([], 0, 0),             # empty row set
        ([], 3, 2),             # append-only splice
        ([1, 2, 6], 1, 1),      # adjacent pair plus a lone row
    ))
    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    def test_named_cases_match_vstack_oracle(self, rows, appended, widen,
                                             dtype):
        rng = np.random.default_rng(len(rows) + appended + widen)
        matrix = _canonical_random(rng, 8, 6, dtype, empty_rows=(2, 5))
        width = 6 + widen
        block = _canonical_random(rng, len(rows), width, dtype,
                                  empty_rows=(0,))
        append = (_canonical_random(rng, appended, width, dtype)
                  if appended else None)
        _assert_splice_matches_oracle(matrix, np.array(rows, dtype=np.int64),
                                      block, width, append)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_splice_matches_vstack_oracle(self, data):
        num_rows = data.draw(st.integers(1, 10))
        num_cols = data.draw(st.integers(1, 8))
        width = num_cols + data.draw(st.integers(0, 3))
        dtype = data.draw(st.sampled_from((np.int32, np.int64)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        replaced = data.draw(st.lists(st.booleans(), min_size=num_rows,
                                      max_size=num_rows))
        rows = np.flatnonzero(replaced)
        appended = data.draw(st.integers(0, 3))
        matrix = _canonical_random(rng, num_rows, num_cols, dtype)
        block = _canonical_random(rng, rows.size, width, dtype)
        append = (_canonical_random(rng, appended, width, dtype)
                  if appended else None)
        _assert_splice_matches_oracle(matrix, rows, block, width, append)


def _canonical_random(rng, num_rows, num_cols, dtype, empty_rows=()):
    """A canonical CSR matrix whose index arrays have ``dtype``."""
    dense = rng.uniform(0.5, 2.0, (num_rows, num_cols))
    dense[rng.random((num_rows, num_cols)) < 0.5] = 0.0
    dense[[row for row in empty_rows if row < num_rows]] = 0.0
    matrix = sp.csr_matrix(dense)
    matrix.indices = matrix.indices.astype(dtype)
    matrix.indptr = matrix.indptr.astype(dtype)
    return matrix


def _assert_splice_matches_oracle(matrix, rows, block, width, append):
    """Bitwise comparison with the splice rebuilt by ``sp.vstack`` of
    one-row slices."""
    wide = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                         shape=(matrix.shape[0], width))
    position = {int(row): i for i, row in enumerate(rows)}
    pieces = [block[position[i]:position[i] + 1] if i in position
              else wide[i:i + 1] for i in range(matrix.shape[0])]
    if append is not None:
        pieces.append(append)
    want = sp.vstack(pieces, format="csr")
    out = splice_csr_rows(matrix, rows, block, num_cols=width, append=append)
    assert out.shape == want.shape
    assert out.has_sorted_indices
    assert np.array_equal(out.indptr, want.indptr)
    assert np.array_equal(out.indices, want.indices)
    assert np.array_equal(out.data, want.data)


class TestMakeDeltaTrace:
    def test_deterministic_and_exact_cover(self, tiny_split):
        batch = tiny_split.incremental_batch("test")
        base = tiny_split.original
        kwargs = dict(num_deltas=4, nodes_per_delta=3, edges_per_delta=2,
                      removals_per_delta=1, updates_per_delta=2, seed=11)
        trace_a = make_delta_trace(base, batch, **kwargs)
        trace_b = make_delta_trace(base, batch, **kwargs)
        assert len(trace_a) == 4
        for da, db in zip(trace_a, trace_b):
            assert np.array_equal(da.add_features, db.add_features)
            assert np.array_equal(da.add_edges, db.add_edges)
            assert np.array_equal(da.add_weights, db.add_weights)
        # every delta appends exactly nodes_per_delta batch nodes, in order
        offset = 0
        for delta in trace_a:
            assert delta.num_new_nodes == 3
            assert np.array_equal(delta.add_features,
                                  batch.features[offset:offset + 3])
            offset += 3

    def test_trace_replays_cleanly(self, tiny_split):
        batch = tiny_split.incremental_batch("test")
        stream = StreamingGraph(tiny_split.original.copy())
        trace = make_delta_trace(tiny_split.original, batch, num_deltas=3,
                                 nodes_per_delta=2, edges_per_delta=3,
                                 removals_per_delta=2, updates_per_delta=1,
                                 seed=5)
        for delta in trace:
            stream.apply(delta)
        assert stream.num_nodes == tiny_split.original.num_nodes + 6

    @pytest.mark.parametrize("sizes", ({"num_deltas": 0},
                                       {"num_deltas": 2, "nodes_per_delta": 0}))
    def test_non_positive_sizes_raise(self, tiny_split, sizes):
        with pytest.raises(GraphError, match="^num_deltas and nodes_per_delta "
                                             "must be positive$"):
            make_delta_trace(tiny_split.original,
                             tiny_split.incremental_batch("test"), **sizes)

    def test_insufficient_batch_raises(self, tiny_split):
        batch = tiny_split.incremental_batch("test").subset(np.arange(3))
        with pytest.raises(GraphError, match="holds"):
            make_delta_trace(tiny_split.original, batch, num_deltas=4,
                             nodes_per_delta=2)

    @pytest.mark.parametrize("removals", (1, 3))
    @pytest.mark.parametrize("seed", (0, 4, 9))
    def test_removal_picks_match_triu_oracle(self, tiny_split, seed,
                                             removals):
        """Removals are picked from the strictly-upper entries in
        row-major order, exactly as from ``sp.triu(adj, k=1).tocoo()``."""
        batch = tiny_split.incremental_batch("test")
        kwargs = dict(num_deltas=6, nodes_per_delta=2, edges_per_delta=3,
                      removals_per_delta=removals, updates_per_delta=2,
                      seed=seed)
        trace = make_delta_trace(tiny_split.original, batch, **kwargs)
        oracle = _triu_reference_trace(tiny_split.original, batch, **kwargs)
        for got, want in zip(trace, oracle, strict=True):
            assert np.array_equal(got.remove_edges, want.remove_edges)
            assert np.array_equal(got.add_edges, want.add_edges)
            assert np.array_equal(got.add_weights, want.add_weights)
            assert np.array_equal(got.update_index, want.update_index)
            assert np.array_equal(got.update_features, want.update_features)


def _triu_reference_trace(base, batch, *, num_deltas, nodes_per_delta,
                          edges_per_delta, removals_per_delta,
                          updates_per_delta, seed, update_scale=0.05):
    """:func:`make_delta_trace` with its removals drawn from a whole-matrix
    ``sp.triu(adj, k=1).tocoo()``, the same random stream otherwise."""
    rng = np.random.default_rng(seed)
    sim = StreamingGraph(base.copy())
    deltas = []
    for step in range(num_deltas):
        old_n = sim.num_nodes
        sel = np.arange(step * nodes_per_delta, (step + 1) * nodes_per_delta)
        inc = batch.incremental[sel].tocoo()
        intra = sp.triu(batch.intra[sel][:, sel], k=1).tocoo()
        rows = [np.column_stack([inc.row + old_n, inc.col])]
        vals = [inc.data]
        if intra.nnz:
            rows.append(np.column_stack([intra.row + old_n,
                                         intra.col + old_n]))
            vals.append(intra.data)
        upper = sp.triu(sim.graph.adjacency, k=1).tocoo()
        picks = rng.choice(upper.nnz, size=min(removals_per_delta, upper.nnz),
                           replace=False)
        remove_edges = np.column_stack([upper.row[picks], upper.col[picks]])
        endpoints = rng.integers(0, old_n, size=(edges_per_delta, 2))
        endpoints = endpoints[endpoints[:, 0] != endpoints[:, 1]]
        lo = np.minimum(endpoints[:, 0], endpoints[:, 1])
        hi = np.maximum(endpoints[:, 0], endpoints[:, 1])
        removed_keys = remove_edges[:, 0] * old_n + remove_edges[:, 1]
        endpoints = endpoints[~np.isin(lo * old_n + hi, removed_keys)]
        if endpoints.size:
            rows.append(endpoints)
            vals.append(np.ones(endpoints.shape[0], dtype=np.float64))
        update_index = np.sort(rng.choice(
            old_n, size=min(updates_per_delta, old_n), replace=False))
        drift = rng.standard_normal(
            (update_index.size, base.feature_dim)) * update_scale
        delta = GraphDelta(
            add_features=batch.features[sel], add_labels=batch.labels[sel],
            add_edges=np.vstack(rows), add_weights=np.concatenate(vals),
            remove_edges=remove_edges, update_index=update_index,
            update_features=sim.graph.features[update_index] + drift)
        sim.apply(delta)
        deltas.append(delta)
    return deltas
