"""Task-typed serving: embeddings, link scores, and top-k similarity.

The serving stack answers more than class logits.  Every layer —
:class:`~repro.serving.runtime.ServingRuntime`,
:class:`~repro.serving.fleet.ServingFleet`, the gateway and its wire
protocol — accepts one request object, :class:`ServeTask`, whose
``task`` field selects what the reply carries:

- ``predict`` — class logits of the request's inductive nodes.  The
  default, and bit-for-bit identical to the pre-task serving path (it
  dispatches to the very same
  :meth:`~repro.serving.prepared.PreparedDeployment.serve_batch` call).
- ``embed`` — the penultimate representation ``H = f(A, X)`` of the
  request's nodes, via the models' existing ``embed()`` contract,
  through the same request-invariant cache path as ``predict``.
- ``link_score`` — edge scores for ``pairs`` of ``(request-local node,
  base node)`` endpoints: the request side is embedded inductively, the
  base side reads the cached base-embedding matrix, and a registered
  scorer (``dot`` or ``hadamard``) combines them.
- ``topk`` — for each request node, its ``k`` nearest base nodes by
  cosine similarity against an :class:`EmbeddingIndex` over the base
  embeddings; the reply packs ``[k neighbor ids | k scores]`` per row
  (ids are exact as float64).

The :data:`TASKS` table maps each task name to its executor, so
``repro list`` enumerates them and every layer dispatches through one
:func:`execute_task` lookup instead of per-task branches.

Each process builds the :class:`EmbeddingIndex` from its own prepared
deployment on the first ``topk`` request.
``PreparedDeployment.apply_delta`` drops the cached matrix and the
index, so top-k answers never go stale against a streamed base graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RegistryError, ServingError
from repro.graph.datasets import IncrementalBatch
from repro.telemetry import stage_span

__all__ = ["ServeTask", "EmbeddingIndex", "SCORERS", "TASKS", "score_pairs",
           "auc_score", "holdout_split", "sample_link_pairs",
           "evaluate_link_holdout", "tasked_requests", "execute_task"]

#: Registered link scorers: ``dot`` is the inner product of the endpoint
#: embeddings; ``hadamard`` is the mean of their elementwise product.
SCORERS = ("dot", "hadamard")


# ----------------------------------------------------------------------
# The request object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeTask:
    """One task-typed serving request — the only request record, from
    client to replica.

    ``batch`` carries the inductive nodes (features, incremental
    connections, optional intra edges); ``task`` names the executor in
    :data:`TASKS`.  ``mode`` and ``trace_id`` are
    the per-request options — every tier's
    ``submit`` reads them from here and takes no overrides;
    ``k``/``pairs``/``scorer`` only matter to the ``topk`` and
    ``link_score`` tasks.
    """

    batch: IncrementalBatch
    task: str = "predict"
    mode: str | None = None
    k: int = 10
    pairs: np.ndarray | None = None
    scorer: str = "dot"
    trace_id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.batch, IncrementalBatch):
            raise ServingError(
                f"ServeTask.batch must be an IncrementalBatch, "
                f"got {type(self.batch).__name__}")
        if self.task not in TASKS:
            raise ServingError(
                f"unknown serving task {self.task!r}; "
                f"available: {', '.join(sorted(TASKS))}")
        if self.mode is not None and self.mode not in ("graph", "node"):
            raise ServingError(
                f"mode must be 'graph' or 'node', got {self.mode!r}")
        if self.scorer not in SCORERS:
            raise ServingError(
                f"scorer must be one of {', '.join(SCORERS)}, "
                f"got {self.scorer!r}")
        if int(self.k) < 1:
            raise ServingError(f"topk needs k >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.pairs is not None:
            pairs = np.asarray(self.pairs, dtype=np.int64)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ServingError(
                    f"pairs must be (p, 2) endpoint indices, "
                    f"got shape {pairs.shape}")
            object.__setattr__(self, "pairs", pairs)
        elif self.task == "link_score":
            raise ServingError(
                "link_score needs pairs: (p, 2) rows of "
                "(request-local node, base node) endpoint indices")

    @property
    def num_nodes(self) -> int:
        return int(self.batch.features.shape[0])

    def result_rows(self) -> int:
        """How many reply rows this task produces (slicing contract)."""
        if self.task == "link_score":
            return int(self.pairs.shape[0])
        return self.num_nodes


# ----------------------------------------------------------------------
# Scoring primitives
# ----------------------------------------------------------------------
def score_pairs(source: np.ndarray, target: np.ndarray,
                scorer: str = "dot") -> np.ndarray:
    """Combine endpoint embeddings into per-pair scores, in float64."""
    if scorer not in SCORERS:
        raise ServingError(
            f"scorer must be one of {', '.join(SCORERS)}, got {scorer!r}")
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape != target.shape:
        raise ServingError(
            f"endpoint embeddings disagree in shape: "
            f"{source.shape} vs {target.shape}")
    product = source * target
    if scorer == "hadamard":
        return product.mean(axis=1)
    return product.sum(axis=1)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; zero rows stay exactly zero (cosine of an
    all-zero embedding is defined as 0 against everything)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    out = np.zeros_like(matrix)
    positive = norms > 0
    out[positive] = matrix[positive] / norms[positive, None]
    return out


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by the Mann–Whitney rank statistic.

    Tied scores receive their average rank, so constant scorers land at
    exactly 0.5.  Needs at least one positive and one negative label.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ServingError(
            f"AUC got {scores.size} scores for {labels.size} labels")
    positive = labels == 1
    num_pos = int(positive.sum())
    num_neg = int(scores.size - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise ServingError(
            "AUC needs both positive and negative pairs "
            f"(got {num_pos} positive, {num_neg} negative)")
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    average_rank = (ends - counts) + (counts + 1) / 2.0
    ranks = average_rank[inverse]
    u = ranks[positive].sum() - num_pos * (num_pos + 1) / 2.0
    return float(u / (num_pos * num_neg))


# ----------------------------------------------------------------------
# The precomputed similarity index
# ----------------------------------------------------------------------
class EmbeddingIndex:
    """A base-node embedding matrix packaged for top-k cosine queries.

    Holds the raw matrix and a row-normalized copy (cosine queries are
    one dense matmul against it).
    """

    def __init__(self, embeddings: np.ndarray) -> None:
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2:
            raise ServingError(
                f"embedding matrix must be (N, d), got {embeddings.shape}")
        self.embeddings = embeddings
        self.normalized = _normalize_rows(embeddings)

    @property
    def num_nodes(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    # ------------------------------------------------------------------
    def topk(self, queries: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, scores)`` of each query row's ``k`` nearest base
        nodes by cosine similarity, scores descending; ties break toward
        the lower node id (stable sort), so answers are deterministic."""
        k = int(k)
        if k < 1:
            raise ServingError(f"topk needs k >= 1, got {k}")
        if k > self.num_nodes:
            raise ServingError(
                f"topk asked for k={k} neighbors but the index holds "
                f"only {self.num_nodes} base nodes")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ServingError(
                f"query dim {queries.shape[1]} != index dim {self.dim}")
        scores = _normalize_rows(queries) @ self.normalized.T
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return order.astype(np.int64), np.take_along_axis(scores, order,
                                                          axis=1)

    def packed_topk(self, queries: np.ndarray, k: int) -> np.ndarray:
        """The wire shape of a ``topk`` reply: ``(n, 2k)`` float64 rows
        of ``[neighbor ids | cosine scores]`` (ids < 2**53 are exact)."""
        indices, scores = self.topk(queries, k)
        return np.concatenate([indices.astype(np.float64), scores], axis=1)

    def __repr__(self) -> str:
        return (f"EmbeddingIndex(num_nodes={self.num_nodes}, "
                f"dim={self.dim})")


# ----------------------------------------------------------------------
# Task executors (the TASKS table)
# ----------------------------------------------------------------------
def _execute_predict(prepared, task: ServeTask, *, batch_mode: str = "graph"):
    return prepared.serve_batch(task.batch, batch_mode)


def _execute_embed(prepared, task: ServeTask, *, batch_mode: str = "graph"):
    return prepared.embed_batch(task.batch, batch_mode)


def _execute_link_score(prepared, task: ServeTask, *,
                        batch_mode: str = "graph"):
    if task.pairs is None:
        raise ServingError("link_score needs pairs of endpoint indices")
    start = time.perf_counter()
    embeddings, _, memory = prepared.embed_batch(task.batch, batch_mode)
    with stage_span("score"):
        local, base = task.pairs[:, 0], task.pairs[:, 1]
        n = embeddings.shape[0]
        if local.size and (local.min() < 0 or local.max() >= n):
            raise ServingError(
                f"link_score pairs cite request-local nodes outside "
                f"[0, {n})")
        num_base = prepared.num_base
        if base.size and (base.min() < 0 or base.max() >= num_base):
            raise ServingError(
                f"link_score pairs cite base nodes outside [0, {num_base})")
        base_matrix = prepared.base_embeddings()
        scores = score_pairs(embeddings[local],
                             np.asarray(base_matrix)[base], task.scorer)
    return scores, time.perf_counter() - start, memory


def _execute_topk(prepared, task: ServeTask, *, batch_mode: str = "graph"):
    start = time.perf_counter()
    embeddings, _, memory = prepared.embed_batch(task.batch, batch_mode)
    with stage_span("score"):
        packed = prepared.embedding_index().packed_topk(embeddings, task.k)
    return packed, time.perf_counter() - start, memory


#: The serving tasks: name -> (executor, the one-line description
#: ``repro list`` prints).  Every executor returns the
#: ``(result, seconds, memory_bytes)`` triple of ``serve_batch``.
TASKS = {
    "predict": (_execute_predict, "class logits of the request's inductive "
                "nodes (the classic, bitwise-stable path)"),
    "embed": (_execute_embed, "penultimate node representations via the "
              "models' embed() contract"),
    "link_score": (_execute_link_score, "edge scores for (request node, base "
                   "node) pairs from cached endpoint embeddings"),
    "topk": (_execute_topk, "k nearest base nodes per request node from the "
             "precomputed embedding index"),
}


def execute_task(prepared, task: ServeTask, *, batch_mode: str = "graph"):
    """Dispatch one :class:`ServeTask` through :data:`TASKS`.

    Returns the executor's ``(result, seconds, memory_bytes)`` triple —
    the same contract as ``PreparedDeployment.serve_batch``.
    """
    if task.task not in TASKS:
        raise RegistryError(
            f"unknown serving task {task.task!r}; "
            f"available: {', '.join(sorted(TASKS))}")
    executor, _ = TASKS[task.task]
    return executor(prepared, task, batch_mode=batch_mode)


# ----------------------------------------------------------------------
# Link-prediction holdout evaluation
# ----------------------------------------------------------------------
def holdout_split(batch: IncrementalBatch, *, num_pairs: int = 64,
                  seed: int = 0) -> tuple[IncrementalBatch, np.ndarray,
                                          np.ndarray]:
    """Hold out inductive edges for link-prediction evaluation.

    Samples up to ``num_pairs`` existing ``(request node, base node)``
    edges from the batch's incremental adjacency, *removes* them from
    the returned batch (the model must not see the edges it is asked to
    score), and pairs them with an equal number of sampled non-edges.
    Returns ``(heldout_batch, pairs, labels)`` with ``labels`` 1 for the
    held-out true edges and 0 for the negatives.
    """
    rng = np.random.default_rng(seed)
    incremental = batch.incremental.tocsr().copy()
    incremental.eliminate_zeros()
    coo = incremental.tocoo()
    if coo.nnz == 0:
        raise ServingError(
            "holdout_split needs a batch with incremental edges to hold out")
    num_pos = int(min(num_pairs, coo.nnz))
    chosen = rng.choice(coo.nnz, size=num_pos, replace=False)
    pos_rows = coo.row[chosen].astype(np.int64)
    pos_cols = coo.col[chosen].astype(np.int64)

    heldout = incremental.tolil()
    heldout[pos_rows, pos_cols] = 0.0
    heldout = heldout.tocsr()
    heldout.eliminate_zeros()

    n, width = incremental.shape
    existing = set(zip(coo.row.tolist(), coo.col.tolist()))
    negatives: list[tuple[int, int]] = []
    # rejection-sample non-edges; the incremental block is sparse, so
    # this converges in a handful of rounds
    attempts = 0
    while len(negatives) < num_pos and attempts < 100:
        rows = rng.integers(0, n, size=num_pos)
        cols = rng.integers(0, width, size=num_pos)
        for row, col in zip(rows.tolist(), cols.tolist()):
            if (row, col) not in existing and len(negatives) < num_pos:
                existing.add((row, col))
                negatives.append((row, col))
        attempts += 1
    if len(negatives) < num_pos:
        raise ServingError(
            "could not sample enough negative pairs; the incremental "
            "block is too dense for a holdout evaluation")
    neg = np.asarray(negatives, dtype=np.int64)
    pairs = np.concatenate(
        [np.stack([pos_rows, pos_cols], axis=1), neg], axis=0)
    labels = np.concatenate([np.ones(num_pos, dtype=np.int64),
                             np.zeros(num_pos, dtype=np.int64)])
    heldout_batch = IncrementalBatch(
        features=batch.features, incremental=heldout, intra=batch.intra,
        labels=batch.labels)
    return heldout_batch, pairs, labels


def sample_link_pairs(batch: IncrementalBatch, *, num_pairs: int = 8,
                      seed: int = 0) -> np.ndarray:
    """Endpoint pairs for driving ``link_score`` traffic (no holdout):
    a mix of the batch's existing incremental edges and random
    ``(request node, base node)`` pairs."""
    rng = np.random.default_rng(seed)
    incremental = batch.incremental.tocsr()
    n, width = incremental.shape
    coo = incremental.tocoo()
    take = int(min(num_pairs // 2, coo.nnz))
    parts = []
    if take:
        chosen = rng.choice(coo.nnz, size=take, replace=False)
        parts.append(np.stack([coo.row[chosen], coo.col[chosen]],
                              axis=1).astype(np.int64))
    remaining = num_pairs - take
    if remaining:
        parts.append(np.stack([rng.integers(0, n, size=remaining),
                               rng.integers(0, width, size=remaining)],
                              axis=1).astype(np.int64))
    return np.concatenate(parts, axis=0)


def evaluate_link_holdout(prepared, batch: IncrementalBatch, *,
                          num_pairs: int = 64, scorer: str = "dot",
                          batch_mode: str = "graph",
                          seed: int = 0) -> dict:
    """Inductive edge-holdout AUC of the ``link_score`` task.

    Held-out incremental edges are scored against sampled non-edges;
    a scorer that recovers the removed edges from embeddings alone
    beats the 0.5 chance line.  Returns a JSON-ready summary.
    """
    heldout_batch, pairs, labels = holdout_split(
        batch, num_pairs=num_pairs, seed=seed)
    task = ServeTask(batch=heldout_batch, task="link_score", pairs=pairs,
                     scorer=scorer)
    scores, seconds, _ = execute_task(prepared, task, batch_mode=batch_mode)
    return {
        "auc": auc_score(scores, labels),
        "num_positive": int(labels.sum()),
        "num_negative": int(labels.size - labels.sum()),
        "scorer": scorer,
        "seconds": float(seconds),
    }


# ----------------------------------------------------------------------
# Request adaptation helpers
# ----------------------------------------------------------------------
def tasked_requests(requests: list[IncrementalBatch], task: str, *,
                    k: int = 10, scorer: str = "dot", num_pairs: int = 8,
                    seed: int = 0) -> list[ServeTask]:
    """Wrap replay batches as :class:`ServeTask` requests of one task.

    ``link_score`` requests get deterministic per-request endpoint pairs
    sampled from their own incremental connections
    (:func:`sample_link_pairs`); other tasks pass the batches through.
    """
    tasks = []
    for position, batch in enumerate(requests):
        pairs = None
        if task == "link_score":
            pairs = sample_link_pairs(batch, num_pairs=num_pairs,
                                      seed=seed + position)
        tasks.append(ServeTask(batch=batch, task=task, k=k, pairs=pairs,
                               scorer=scorer))
    return tasks
