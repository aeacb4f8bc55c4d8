"""Shared fixtures: small deterministic graphs, splits, and condensed graphs."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from repro.condense import CondensedGraph, MCondConfig, MCondReducer
from repro.graph import Graph, load_dataset
from repro.graph.datasets import IncrementalBatch, InductiveSplit
from repro.serving import ServeTask


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def path_graph() -> Graph:
    """A 5-node path graph with 2-d features and 2 classes."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    adj = sp.coo_matrix(
        (np.ones(4), (edges[:, 0], edges[:, 1])), shape=(5, 5)).tocsr()
    adj = adj.maximum(adj.T)
    features = np.arange(10, dtype=np.float64).reshape(5, 2)
    labels = np.array([0, 0, 0, 1, 1])
    return Graph(adj, features, labels)


@pytest.fixture(scope="session")
def tiny_split() -> InductiveSplit:
    """The tiny-sim dataset (300 nodes), shared across the session."""
    return load_dataset("tiny-sim", seed=7)


@pytest.fixture(scope="session")
def tiny_condensed(tiny_split) -> CondensedGraph:
    """A small MCond condensation of tiny-sim (session-cached for speed)."""
    config = MCondConfig(outer_loops=1, match_steps=3, mapping_steps=5,
                        adjacency_pretrain_steps=30, seed=3)
    return MCondReducer(config).reduce(tiny_split, 9)


@pytest.fixture(scope="session")
def tiny_mcond_result(tiny_split):
    """MCond result object with histories (session-cached)."""
    config = MCondConfig(outer_loops=1, match_steps=3, mapping_steps=5,
                        adjacency_pretrain_steps=30, seed=4)
    reducer = MCondReducer(config)
    reducer.reduce(tiny_split, 9)
    return reducer.last_result


def _raw_task(features, incremental, intra=None, **options) -> ServeTask:
    """Wrap raw request arrays in a :class:`ServeTask` *unchanged* — 1-D
    features, dense or mis-shaped connectivity and a missing ``intra``
    all reach the tier under test, whose admission owns canonicalising
    (or rejecting) them."""
    n = np.atleast_2d(np.asarray(features)).shape[0]
    batch = IncrementalBatch(features=features, incremental=incremental,
                             intra=intra,
                             labels=np.full(n, -1, dtype=np.int64))
    return ServeTask(batch, **options)


@pytest.fixture(scope="session")
def raw_task():
    """The tests' batch-builder: ``raw_task(features, incremental,
    intra=None, **task_options) -> ServeTask``."""
    return _raw_task


def _pad_incremental(batch: IncrementalBatch, width: int) -> IncrementalBatch:
    """Widen ``batch.incremental`` to ``width`` base columns (the base
    graph grew since the request was cut)."""
    inc = batch.incremental.tocsr()
    if inc.shape[1] == width:
        return batch
    padded = sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                           shape=(inc.shape[0], width))
    return IncrementalBatch(features=batch.features, incremental=padded,
                            intra=batch.intra, labels=batch.labels)


@pytest.fixture(scope="session")
def pad_incremental():
    """``pad_incremental(batch, width) -> IncrementalBatch``."""
    return _pad_incremental


def _isolation_requests(data, batch: IncrementalBatch) -> list:
    """One to eight node-mode requests of one to four of ``batch``'s
    nodes each, drawn from a hypothesis ``data`` strategy."""
    count = data.draw(st.integers(1, 8), label="requests")
    node = st.integers(0, batch.num_nodes - 1)
    return [batch.subset(np.array(data.draw(
        st.lists(node, min_size=1, max_size=4, unique=True),
        label="nodes"))) for _ in range(count)]


@pytest.fixture(scope="session")
def isolation_requests():
    """``isolation_requests(data, batch) -> [IncrementalBatch]``."""
    return _isolation_requests


def _assert_isolated(task: str, alone, batched) -> None:
    """Replies served alone match the same requests served together:
    ``embed`` bitwise; a ``predict`` reply's classifier gemm follows the
    operand's row count, so it agrees within the 1e-12 relative bound
    of ``docs/precision.md``."""
    assert len(alone) == len(batched)
    for one, many in zip(alone, batched):
        if task == "embed":
            assert np.array_equal(one, many)
        else:
            assert np.abs(one - many).max() <= 1e-12 * np.abs(many).max()
            assert np.array_equal(one.argmax(axis=1), many.argmax(axis=1))


@pytest.fixture(scope="session")
def assert_isolated():
    """``assert_isolated(task, alone, batched)``."""
    return _assert_isolated


@pytest.fixture(scope="session")
def pubmed_original_bundle():
    """pubmed-sim (quick, quarter scale) served on its original graph by
    an mcond-trained model — the deployment the storage-precision,
    frozen-path and link-prediction accuracy bounds are stated on."""
    from repro import api
    return api.deploy("pubmed-sim", "mcond", 30, deployment="original",
                      seed=0, scale=0.25, profile="quick")


@pytest.fixture(scope="session")
def pubmed_synthetic_bundle():
    """The same condensation served on its 30-node synthetic graph
    through the mapping (Eq. 11) — the frozen path's second deployment."""
    from repro import api
    return api.deploy("pubmed-sim", "mcond", 30, seed=0, scale=0.25,
                      profile="quick")
