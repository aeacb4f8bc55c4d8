"""The four workloads and the traffic each one replays.

A workload fixes the *program under test* — dataset, reduction method,
budget, all with dataset/model seed 0 — and takes the ``--seed`` only
for the traffic: the order in which the evaluation batch's nodes are
grouped into requests, and the delta trace.  That keeps ``accuracy``
and ``artifact_bytes`` properties of the code, not of the seed.

Nothing here imports numpy or ``repro`` at module level: the parent
process reads the specs without touching BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from harness.spans import SpanRecorder

#: The environment every timed process runs in; a child refuses to
#: start without it.  BLAS on one thread: two threads on two shared cores
#: are slower and noisier.  The two glibc malloc settings stop the heap
#: from being trimmed and re-faulted on every request: with the default
#: dynamic thresholds an original-graph request takes ~3,700 minor page
#: faults (its 24 MB temporaries are returned to the kernel and zeroed
#: again) and 32-36 ms, or none and 24-25 ms, depending on what the
#: process happened to allocate before — a bimodal, host-sensitive cost
#: that a long-lived server would pin the same way.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(512 * 1024 * 1024),
}
#: Seed of the dataset simulator, the reducer and the trainer; also the
#: traffic seed of the pass ``accuracy`` is measured on.
PROGRAM_SEED = 0
#: Effort profile of the offline phase (``repro.experiments.settings``).
PROFILE = "quick"
#: Fresh online processes per run; their rounds are pooled.
ONLINE_PROCESSES = 3
#: Requests served before ``setup_s`` stops, so timed rounds start warm.
WARMUP_REQUESTS = 16
#: Requests submitted before each drain in the throughput pass; also the
#: scheduler's ``max_batch_size``.
BURST = 8
#: ``PreparedDeployment.apply_delta`` falls back to a rebuild beyond this.
STALENESS_THRESHOLD = 0.25
#: Reads between two deltas on the streaming workload.
READS_PER_DELTA = 4
#: Share of deltas that must refresh incrementally, so the ingest cost
#: never sits on the boundary between the two refresh modes.
MIN_INCREMENTAL_SHARE = 0.9
#: Requests in the verification sample compared with the naive path.
PARITY_REQUESTS = 32
#: A process never pools more rounds than this, however long it may run.
MAX_ROUNDS_PER_PROCESS = 8


@dataclass(frozen=True)
class Workload:
    """One offline phase and the online traffic replayed against it."""

    name: str
    why: str
    dataset: str
    method: str  # a REDUCERS key, or "whole" for the uncondensed baseline
    budget: int | None = None
    scale: float = 1.0
    reducer_options: dict = field(default_factory=dict)
    nodes_per_request: int = 4
    #: Requests a round replays, once one at a time and once in bursts;
    #: at least 200, so ten samples lie beyond the p95.
    round_requests: int = 200
    #: Rounds every online process completes even when that overruns its
    #: share of ``--seconds``.
    min_rounds: int = 2
    #: A reply slower than this counts as a miss in ``ok_share`` (about
    #: eight times the p50 measured when the benchmark landed).
    latency_limit_ms: float = 10.0
    #: Streaming only: ``GraphDelta``s interleaved with the reads.
    num_deltas: int = 0
    nodes_per_delta: int = 4
    #: Requests sent through each tier of the traced waterfall.
    waterfall_requests: int = 64


WORKLOADS: dict[str, Workload] = {spec.name: spec for spec in (
    Workload(
        name="serve_synthetic",
        why="MCond's regime: ~1 ms requests on the 82-node synthetic "
            "graph, so runtime/queue/future overhead and the Eq. 11 "
            "attach through M dominate; big-graph kernels are absent",
        dataset="reddit-sim", method="mcond", budget=82,
        round_requests=462, min_rounds=3, latency_limit_ms=10.0,
        waterfall_requests=256),
    Workload(
        name="serve_original",
        why="the baseline the paper beats: ~25 ms requests on the "
            "5082-node original graph, all attach+normalize+propagate; "
            "runtime overhead is <2 %, batching 8 requests shows coalescing",
        dataset="reddit-sim", method="whole",
        round_requests=200, min_rounds=2, latency_limit_ms=180.0,
        waterfall_requests=48),
    Workload(
        name="stream_mixed",
        why="writes beside reads on one prepared cache: one GraphDelta "
            "after every 4 two-node reads on pubmed-sim x4; a read gain "
            "bought with costlier refreshes shows as a throughput loss",
        dataset="pubmed-sim", method="whole", scale=4.0,
        nodes_per_request=2, round_requests=200, min_rounds=2,
        latency_limit_ms=200.0, num_deltas=80, waterfall_requests=96),
    Workload(
        name="condense_offline",
        why="the offline layer used differently: partition, per-shard "
            "mcond, merge with cut-edge re-scoring at budget 164, where "
            "the whole-graph reducer goes super-linear",
        dataset="reddit-sim", method="sharded", budget=164,
        reducer_options={"shards": 2, "workers": 1},
        round_requests=231, min_rounds=2, latency_limit_ms=20.0,
        waterfall_requests=256),
)}


@dataclass
class Traffic:
    """The request list (and delta trace) one seed generates."""

    tasks: list  # ServeTask, in replay order
    labels: object  # (nodes,) ground truth of the served nodes, in order
    deltas: list  # GraphDelta; empty unless the workload streams

    def head(self, requests: int) -> "Traffic":
        """The first ``requests`` requests with the deltas between them."""
        nodes = sum(task.num_nodes for task in self.tasks[:requests])
        return Traffic(self.tasks[:requests], self.labels[:nodes],
                       self.deltas[:requests // READS_PER_DELTA])


def with_width(batch, width: int):
    """``batch`` citing a base graph of ``width`` nodes.

    Only for widths at or beyond the batch's last cited column: appended
    base nodes add empty columns, and dropping them again loses nothing.
    """
    import scipy.sparse as sp
    from repro.graph.datasets import IncrementalBatch

    inc = batch.incremental
    if inc.shape[1] == width:
        return batch
    return IncrementalBatch(
        features=batch.features,
        incremental=sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                                  shape=(inc.shape[0], width)),
        intra=batch.intra, labels=batch.labels)


def build_traffic(spec: Workload, bundle, batch, seed: int,
                  recorder: SpanRecorder) -> Traffic:
    """Deterministic traffic for ``seed`` over the evaluation ``batch``.

    Static workloads shuffle the whole evaluation batch and cut it into
    ``nodes_per_request``-node requests.  The streaming workload keeps
    the evaluated node set seed-independent: the first ``num_deltas *
    nodes_per_delta`` nodes are always the ones promoted into the base
    graph (in a seeded order, with seeded churn), the rest are always
    the ones read (in a seeded order).  A read in group ``g`` is sent
    with the incremental width a client that has seen ``g`` deltas
    would use.
    """
    import numpy as np
    from repro.graph.stream import make_delta_trace
    from repro.serving import ServeTask
    from repro.serving.workload import split_requests

    rng = np.random.default_rng(seed)
    reserved = spec.num_deltas * spec.nodes_per_delta
    deltas = []
    if reserved:
        delta_pool = batch.subset(rng.permutation(reserved))
        with recorder.span("graph.make_delta_trace"):
            deltas = make_delta_trace(
                bundle.base, delta_pool, num_deltas=spec.num_deltas,
                nodes_per_delta=spec.nodes_per_delta, edges_per_delta=4,
                removals_per_delta=2, updates_per_delta=2, seed=seed)
    order = reserved + rng.permutation(batch.num_nodes - reserved)
    pool = batch.subset(order)
    count = pool.num_nodes // spec.nodes_per_request
    requests = split_requests(pool, count, spec.nodes_per_request)
    if deltas:
        base_width = pool.incremental.shape[1]
        for index, request in enumerate(requests):
            seen = min(index // READS_PER_DELTA, len(deltas))
            requests[index] = with_width(
                request, base_width + seen * spec.nodes_per_delta)
    return Traffic(tasks=[ServeTask(batch=request) for request in requests],
                   labels=pool.labels[:count * spec.nodes_per_request],
                   deltas=deltas)
