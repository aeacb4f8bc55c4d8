"""One-call facade over the whole pipeline: ``condense`` → ``deploy`` → ``serve``.

The paper's value proposition is *condense offline once, serve inductive
nodes online cheaply* (Eq. 11).  This module is the single public way to
run that flow — components resolve by name through the plain tables
:data:`repro.condense.REDUCERS`, :data:`repro.nn.models.MODELS` and
:data:`repro.graph.datasets.DATASET_SPECS`, so any reduction method,
model architecture, or dataset composes with any other:

>>> from repro import api
>>> condensed = api.condense("pubmed-sim", method="mcond", budget=30)
>>> bundle = api.deploy("pubmed-sim", method="mcond", budget=30)
>>> bundle.save("artifact.npz")          # offline phase ends here
...
>>> bundle = api.DeploymentBundle.load("artifact.npz")   # cold process
>>> report = api.serve(bundle, batch_mode="node")
>>> report.accuracy                                       # doctest: +SKIP

:class:`DeploymentBundle` is the persistable artifact of the offline
phase: the condensed graph, the trained model weights, the deployed
normalization operator, and enough metadata to rebuild the serving stack
bit-for-bit in a fresh process.  Its ``.npz`` layout extends
:class:`~repro.condense.base.CondensedGraph`'s scheme (same arrays, under
a ``condensed::`` prefix) and carries the same ``format_version`` stamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.condense.base import (
    FORMAT_VERSION,
    CondensedGraph,
    check_format_version,
)
from repro.errors import ArtifactError, ConfigError
from repro.experiments.pipeline import ExperimentContext, prepare_dataset
from repro.experiments.settings import EffortProfile, FULL, QUICK, current_profile
from repro.graph.datasets import IncrementalBatch
from repro.graph.graph import Graph
from repro.inference.engine import (
    InductiveServer,
    InferenceReport,
    serves_frozen,
)
from repro.nn.models import GNNModel, make_model
from repro.serving.prepared import PreparedDeployment
from repro.serving.runtime import MicroBatchScheduler, ServingRuntime
from repro.tensor.sparse import dense_memory_bytes, sparse_memory_bytes
from repro.utils.artifacts import normalize_npz_path, open_npz_archive, save_npz

__all__ = ["condense", "deploy", "serve", "open_runtime", "open_stream",
           "open_fleet", "open_gateway", "evaluation_batch",
           "DeploymentBundle"]


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
_PROFILES = {"quick": QUICK, "full": FULL}


def _resolve_profile(profile: EffortProfile | str | None) -> EffortProfile:
    if profile is None:
        return current_profile()
    if isinstance(profile, EffortProfile):
        return profile
    if profile not in _PROFILES:
        raise ConfigError(
            f"unknown effort profile {profile!r}; "
            f"use one of {', '.join(_PROFILES)} or an EffortProfile")
    return _PROFILES[profile]


@lru_cache(maxsize=8)
def _prepared(dataset: str, seed: int, scale: float):
    # Dataset generation is the most expensive shared step of facade calls
    # (each simulator build takes ~0.5s); memoize it so repeated
    # condense/deploy/serve calls — e.g. an architecture sweep — pay once.
    # PreparedDataset is treated as read-only everywhere.
    return prepare_dataset(dataset, seed=seed, scale=scale)


@lru_cache(maxsize=8)
def _cached_context(dataset: str, seed: int, scale: float,
                    profile: EffortProfile) -> ExperimentContext:
    # Sharing the context (not just the dataset) lets sequential facade
    # calls hit its condensation/training memos — `condense(...)` followed
    # by `deploy(...)` with the same arguments runs the reduction once.
    return ExperimentContext(_prepared(dataset, seed, scale), profile)


def _context(dataset: str, seed: int, scale: float,
             profile: EffortProfile | str | None) -> ExperimentContext:
    return _cached_context(dataset, seed, scale, _resolve_profile(profile))


# ----------------------------------------------------------------------
# condense
# ----------------------------------------------------------------------
def condense(dataset: str, method: str = "mcond", budget: int = 30, *,
             seed: int = 0, scale: float = 1.0,
             profile: EffortProfile | str | None = None,
             **config) -> CondensedGraph:
    """Condense ``dataset`` with a reduction method.

    Parameters
    ----------
    dataset:
        A key of :data:`repro.graph.datasets.DATASET_SPECS` (e.g.
        ``"pubmed-sim"``).
    method:
        A key of :data:`repro.condense.REDUCERS` (e.g. ``"mcond"``).
    budget:
        Number of synthetic nodes ``N'``.
    profile:
        Compute budget: ``"quick"``, ``"full"``, an
        :class:`~repro.experiments.settings.EffortProfile`, or ``None``
        for the ``REPRO_EFFORT`` environment default.
    config:
        Method-specific overrides (e.g. ``lambda_structure=0.1``).
    """
    context = _context(dataset, seed, scale, profile)
    return context.reduce(method, budget, seed=seed, **config)


# ----------------------------------------------------------------------
# DeploymentBundle
# ----------------------------------------------------------------------
@dataclass
class DeploymentBundle:
    """Everything the online serving phase needs, in one persistable artifact.

    Attributes
    ----------
    model_name:
        The :data:`~repro.nn.models.MODELS` key of the trained architecture.
    model_config:
        Keyword arguments that rebuild the architecture via
        :func:`~repro.nn.models.make_model` (includes ``in_features`` and
        ``num_classes``).
    state:
        The trained weights (dotted-name → array, float64).
    deployment:
        ``"synthetic"`` (serve on the condensed graph through its mapping,
        Eq. 11) or ``"original"`` (serve on the stored original graph,
        Eq. 3).
    condensed:
        The condensed graph; ``None`` only for the whole-graph baseline.
    base:
        The original training graph; stored only when ``deployment ==
        "original"`` (synthetic serving never touches it, and omitting it
        is what keeps the artifact small — the paper's deployment story).
    metadata:
        Provenance: dataset/seed/scale, method, budget, profile, library
        version.  ``serve`` uses it to regenerate evaluation batches.
    """

    model_name: str
    model_config: dict
    state: dict[str, np.ndarray]
    deployment: str
    condensed: CondensedGraph | None = None
    base: Graph | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deployment not in ("original", "synthetic"):
            raise ConfigError(
                f"deployment must be 'original' or 'synthetic', "
                f"got {self.deployment!r}")
        if self.deployment == "synthetic" and self.condensed is None:
            raise ConfigError("synthetic deployment requires a condensed graph")
        if self.deployment == "original" and self.base is None:
            raise ConfigError("original deployment requires the base graph")

    # ------------------------------------------------------------------
    def model(self) -> GNNModel:
        """Rebuild the architecture and load the trained weights."""
        config = dict(self.model_config)
        in_features = config.pop("in_features")
        num_classes = config.pop("num_classes")
        model = make_model(self.model_name, in_features, num_classes, **config)
        model.load_state_dict(self.state)
        model.eval()
        return model

    def operator(self):
        """The deployed normalization operator ``Â`` (dense for synthetic
        graphs, sparse CSR for the original graph)."""
        from repro.graph.ops import symmetric_normalize
        if self.deployment == "synthetic":
            assert self.condensed is not None
            return self.condensed.normalized_adjacency()
        assert self.base is not None
        return symmetric_normalize(self.base.adjacency)

    def prepare(self) -> PreparedDeployment:
        """The request-invariant serving cache for this bundle."""
        return PreparedDeployment.from_bundle(self)

    def storage_bytes(self) -> int:
        """Resident deployment storage of the served graph (paper metric):
        sparse adjacency + features of the original graph, or the
        condensed graph with its mapping."""
        if self.deployment == "original":
            return (sparse_memory_bytes(self.base.adjacency)
                    + dense_memory_bytes(self.base.features))
        return self.condensed.storage_bytes(include_mapping=True)

    # ------------------------------------------------------------------
    # Persistence — one .npz per bundle, extending CondensedGraph's scheme.
    # ------------------------------------------------------------------
    def save(self, path: str | Path, *, layout: str = "compressed",
             precision: str = "float64") -> Path:
        """Persist the bundle; returns the normalized ``.npz`` path.

        ``layout="compressed"`` (default) deflates the archive — the
        smallest artifact.  ``layout="mmap"`` stores members raw so
        :meth:`load` with ``mmap=True`` can map them zero-copy: every
        serving replica on a host then shares one page-cache copy of the
        arrays instead of holding a private decompressed one.

        ``precision`` is the storage format — the one place a numeric
        mode is chosen: ``"float32"`` halves every float member,
        ``"int8"`` additionally quantizes the feature matrices with
        per-column absmax scales (~8x smaller features).  The mode is
        recorded in the artifact metadata; :meth:`load` widens the
        members back to float64, so serving always computes in float64.
        """
        if layout not in ("compressed", "mmap"):
            raise ConfigError(
                f"layout must be 'compressed' or 'mmap', got {layout!r}")
        if precision not in PRECISIONS:
            raise ConfigError(
                f"precision must be one of {', '.join(PRECISIONS)}, "
                f"got {precision!r}")
        target = normalize_npz_path(path)
        meta = {
            "kind": "deployment-bundle",
            "model_name": self.model_name,
            "model_config": self.model_config,
            "deployment": self.deployment,
            "metadata": self.metadata,
            "precision": precision,
        }
        payload: dict[str, np.ndarray] = {
            "format_version": np.asarray(FORMAT_VERSION),
            "meta_json": np.asarray(json.dumps(meta)),
        }
        for name, value in self.state.items():
            payload[f"param::{name}"] = value
        if self.condensed is not None:
            payload.update(self.condensed.to_payload("condensed::"))
        if self.base is not None:
            coo = self.base.adjacency.tocoo()
            payload["base::adj_row"] = coo.row
            payload["base::adj_col"] = coo.col
            payload["base::adj_data"] = coo.data
            payload["base::adj_shape"] = np.asarray(coo.shape)
            payload["base::features"] = self.base.features
            if self.base.labels is not None:
                payload["base::labels"] = self.base.labels
        if precision != "float64":
            payload = _narrow_payload(payload, precision)
        return save_npz(target, payload, compressed=(layout == "compressed"))

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> "DeploymentBundle":
        """Load a bundle saved by :meth:`save`.

        ``mmap=True`` memory-maps the artifact read-only: arrays stored
        uncompressed (``save(layout="mmap")``) are returned as
        buffer-backed, non-writable views over the shared mapping — the
        zero-copy path serving replicas use — while compressed members
        fall back to an eager read.  Serving is bit-for-bit identical
        either way (the parity tests assert it).  A narrowed artifact
        (``save(precision="float32" | "int8")``) is read eagerly and
        widened to float64 member by member.
        """
        target = normalize_npz_path(path)
        with open_npz_archive(target, "deployment bundle",
                              mmap=mmap) as archive:
            check_format_version(archive, target)
            if "meta_json" not in archive.files:
                raise ArtifactError(
                    f"{target} is not a deployment bundle (no metadata); "
                    "bare condensed graphs load via CondensedGraph.load")
            meta = json.loads(str(archive["meta_json"]))
            if meta.get("kind") != "deployment-bundle":
                raise ArtifactError(
                    f"{target} has unexpected artifact kind {meta.get('kind')!r}")
            if meta.get("precision", "float64") != "float64":
                archive = _WidenedArchive(archive)
            state = {name[len("param::"):]: archive[name]
                     for name in archive.files if name.startswith("param::")}
            condensed = None
            if "condensed::adjacency" in archive.files:
                condensed = CondensedGraph.from_payload(archive, "condensed::")
            base = None
            if "base::features" in archive.files:
                shape = tuple(int(v) for v in archive["base::adj_shape"])
                adjacency = sp.coo_matrix(
                    (archive["base::adj_data"],
                     (archive["base::adj_row"], archive["base::adj_col"])),
                    shape=shape).tocsr()
                labels = (archive["base::labels"]
                          if "base::labels" in archive.files else None)
                base = Graph(adjacency, archive["base::features"], labels)
            return cls(model_name=meta["model_name"],
                       model_config=meta["model_config"],
                       state=state,
                       deployment=meta["deployment"],
                       condensed=condensed,
                       base=base,
                       metadata=meta.get("metadata", {}))

    def __repr__(self) -> str:
        graph = (f"condensed={self.condensed.num_nodes} nodes"
                 if self.condensed is not None else
                 f"original={self.base.num_nodes} nodes")
        return (f"DeploymentBundle(model={self.model_name!r}, "
                f"deployment={self.deployment!r}, {graph}, "
                f"method={self.metadata.get('method')!r})")


#: Storage precisions an artifact can be saved in, in decreasing width.
PRECISIONS = ("float64", "float32", "int8")

#: Feature matrices that int8 artifacts store quantized (with a sibling
#: ``<name>_scale`` per-column absmax row).
_QUANTIZED_MEMBERS = ("base::features", "condensed::features")


def _quantize_columns(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column absmax int8 quantization: ``(q, scale)``.

    ``scale[j] = absmax(column j) / 127`` (1.0 for all-zero columns, so
    dequantization is well-defined), ``q = round(matrix / scale)`` clipped
    to ``[-127, 127]``.  Exact zeros quantize to exactly 0 and
    dequantize to exactly 0.0.
    """
    matrix = np.asarray(matrix)
    if matrix.size:
        absmax = np.abs(matrix).max(axis=0)
    else:
        absmax = np.zeros(matrix.shape[1], dtype=np.float64)
    scale = np.where(absmax > 0, absmax / 127.0, 1.0).astype(np.float32)
    q = np.clip(np.rint(matrix / scale), -127, 127).astype(np.int8)
    return q, scale


def _dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_quantize_columns`, in float64."""
    return q.astype(np.float64) * scale


def _narrow_payload(payload: dict, precision: str) -> dict:
    """Narrow a bundle payload's float64 members for a reduced artifact.

    float32 mode halves every float member; int8 mode additionally
    quantizes the feature matrices column-wise.  Integer arrays (indices,
    labels, shapes) and the metadata strings pass through untouched.
    """
    narrowed: dict[str, np.ndarray] = {}
    for name, value in payload.items():
        array = np.asarray(value)
        if array.dtype == np.float64:
            if precision == "int8" and name in _QUANTIZED_MEMBERS:
                q, scale = _quantize_columns(array)
                narrowed[name] = q
                narrowed[f"{name}_scale"] = scale
                continue
            array = array.astype(np.float32)
        narrowed[name] = array
    return narrowed


class _WidenedArchive(dict):
    """A narrowed artifact's members back at float64: int8 features
    dequantized with their column scales, float32 members widened (exact).
    Exposes the ``.files`` listing the readers expect of an archive."""

    def __init__(self, archive) -> None:
        members = {name: archive[name] for name in archive.files}
        for name in _QUANTIZED_MEMBERS:
            if f"{name}_scale" in members:
                members[name] = _dequantize(members[name],
                                            members.pop(f"{name}_scale"))
        super().__init__(
            (name, value.astype(np.float64) if value.dtype == np.float32
             else value) for name, value in members.items())
        self.files = list(self)


# ----------------------------------------------------------------------
# deploy
# ----------------------------------------------------------------------
def deploy(dataset: str, method: str | None = "mcond", budget: int = 30, *,
           model: str = "sgc", train_on: str | None = None,
           deployment: str | None = None, seed: int = 0, scale: float = 1.0,
           profile: EffortProfile | str | None = None,
           condensed: CondensedGraph | None = None,
           reducer_options: dict | None = None,
           model_options: dict | None = None) -> DeploymentBundle:
    """Run the offline phase end to end and package the result.

    Condenses ``dataset`` with ``method`` (skipped for ``method=None`` /
    ``"whole"`` — the full-graph baseline), trains ``model`` on
    ``train_on`` (default: the synthetic graph when one exists), and
    returns a :class:`DeploymentBundle` serving on ``deployment``
    (default: the synthetic graph when the method learned a mapping,
    else the original graph).

    Pass ``condensed`` to reuse a graph from a previous
    :func:`condense` call instead of re-running the reduction.
    """
    context = _context(dataset, seed, scale, profile)
    if condensed is not None:
        method = condensed.method
        budget = condensed.num_nodes
    elif method is not None and method != "whole":
        condensed = context.reduce(method, budget, seed=seed,
                                   **(reducer_options or {}))
    if train_on is None:
        train_on = "synthetic" if condensed is not None else "original"
    if deployment is None:
        deployment = ("synthetic"
                      if condensed is not None and condensed.supports_attachment()
                      else "original")
    trained = context.train(train_on, model_name=model, condensed=condensed,
                            validate_deployment=deployment, seed=seed,
                            **(model_options or {}))
    base = context.prepared.original if deployment == "original" else None
    from repro import __version__
    metadata = {
        "dataset": context.prepared.name,
        "seed": seed,
        "scale": scale,
        "method": method if condensed is not None else "whole",
        "budget": budget if condensed is not None else None,
        "train_on": train_on,
        "profile": context.profile.name,
        "library_version": __version__,
    }
    return DeploymentBundle(
        model_name=trained.registry_name,
        model_config=dict(trained.build_config),
        state=trained.state_dict(),
        deployment=deployment,
        condensed=condensed,
        base=base,
        metadata=metadata)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve(bundle: DeploymentBundle | str | Path,
          batch: IncrementalBatch | None = None, *,
          batch_mode: str = "graph",
          batch_size: int = 1000) -> InferenceReport:
    """Serve one inductive batch against a deployment bundle.

    ``bundle`` may be a :class:`DeploymentBundle` or a path to one.  When
    ``batch`` is omitted, the evaluation (test) batch of the bundle's
    recorded dataset is regenerated from its metadata — the simulators
    are deterministic, so this reproduces the in-memory pipeline exactly.
    The batch is served in mini-batches of ``batch_size`` through the
    operator every serving tier serves: the frozen one on a synthetic
    SGC deployment (:func:`~repro.inference.engine.serves_frozen`), else
    Eq. 3 / Eq. 11.
    """
    if not isinstance(bundle, DeploymentBundle):
        bundle = DeploymentBundle.load(bundle)
    if batch is None:
        batch = evaluation_batch(bundle)
    model = bundle.model()
    server = InductiveServer(model, bundle.deployment, bundle.base,
                             bundle.condensed)
    return server.run(batch, batch_size=batch_size, batch_mode=batch_mode,
                      frozen=serves_frozen(model, bundle.deployment))


def open_runtime(bundle: DeploymentBundle | str | Path, *,
                 batch_mode: str = "graph",
                 max_batch_size: int = 32, max_wait_ms: float = 2.0,
                 queue_capacity: int = 1024,
                 overflow: str = "block") -> ServingRuntime:
    """Open a long-lived :class:`~repro.serving.runtime.ServingRuntime`.

    ``bundle`` may be a :class:`DeploymentBundle` or a path to one.  The
    runtime coalesces concurrent requests into micro-batches of up to
    ``max_batch_size`` requests, waiting at most ``max_wait_ms`` for
    companions (``max_batch_size=1`` serves each request alone), over a
    prepared deployment cache; see :mod:`repro.serving` for the moving
    parts.

    Requests are task-typed: wrap the batch in a
    :class:`~repro.serving.embeddings.ServeTask` and pick ``predict``
    (default), ``embed``, ``link_score``, or ``topk``.  Every task is
    served through the deployment's operator: the frozen one on a
    synthetic SGC deployment, else Eq. 3 on the original graph or
    Eq. 11 through the mapping ``M``.

    >>> from repro.serving import ServeTask             # doctest: +SKIP
    >>> runtime = api.open_runtime("artifact.npz")      # doctest: +SKIP
    >>> with runtime:                                   # doctest: +SKIP
    ...     future = runtime.submit(ServeTask(batch=batch))
    ...     logits = future.result()
    ...     vectors = runtime.submit(
    ...         ServeTask(batch=batch, task="embed")).result()
    """
    if not isinstance(bundle, DeploymentBundle):
        bundle = DeploymentBundle.load(bundle)
    return ServingRuntime(
        bundle.prepare(), MicroBatchScheduler(max_batch_size, max_wait_ms),
        batch_mode=batch_mode, queue_capacity=queue_capacity,
        overflow=overflow)


def open_stream(bundle: DeploymentBundle | str | Path, *,
                staleness_threshold: float = 0.25,
                batch_mode: str = "graph",
                max_batch_size: int = 32, max_wait_ms: float = 2.0,
                queue_capacity: int = 1024,
                overflow: str = "block") -> ServingRuntime:
    """Open a runtime that serves *and evolves*: a streaming deployment.

    Like :func:`open_runtime`, for a deployment that ingests
    :class:`~repro.graph.stream.GraphDelta` traffic.  Each
    ``runtime.ingest(delta)`` updates only what exact serving reads (the
    base block and the degrees); the normalized operator and the
    propagated features are dropped and recomputed on their next read,
    so none is warmed up front.  ``staleness_threshold`` is the
    affected-row fraction beyond which a delta reports mode
    ``"rebuild"`` instead of ``"incremental"``; both modes do the same
    work, so it only picks the reported mode (see
    :meth:`~repro.serving.prepared.PreparedDeployment.apply_delta`).

    >>> runtime = api.open_stream("artifact.npz")       # doctest: +SKIP
    >>> with runtime:                                   # doctest: +SKIP
    ...     runtime.ingest(delta)                       # evolve the base
    ...     future = runtime.submit(ServeTask(batch=batch))  # serve it
    """
    runtime = open_runtime(
        bundle, batch_mode=batch_mode, max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms, queue_capacity=queue_capacity,
        overflow=overflow)
    runtime.staleness_threshold = staleness_threshold
    return runtime


def open_fleet(bundle: DeploymentBundle | str | Path, replicas: int = 2, *,
               batch_mode: str = "node"):
    """Open a multi-replica :class:`~repro.serving.fleet.ServingFleet`.

    ``bundle`` is normally a path to a saved artifact — each replica
    process loads it independently and memory-maps the stored arrays, so
    every replica on the host shares one page-cache copy instead of
    holding a private one.  Save artifacts with
    ``bundle.save(path, layout="mmap")`` to make every member mappable;
    compressed and narrowed members load eagerly per replica.  An
    in-memory :class:`DeploymentBundle` is persisted to a temporary
    mmap-layout artifact first (removed when the fleet closes).

    >>> fleet = api.open_fleet("artifact.npz", replicas=4)  # doctest: +SKIP
    >>> with fleet:                                         # doctest: +SKIP
    ...     future = fleet.submit(ServeTask(batch=batch))
    ...     logits = future.result()
    ...     fleet.swap("artifact-v2.npz")   # rolling, zero dropped traffic
    """
    from repro.serving.fleet import ServingFleet

    owns = isinstance(bundle, DeploymentBundle)
    if owns:
        import tempfile
        handle = tempfile.NamedTemporaryFile(
            prefix="repro-fleet-", suffix=".npz", delete=False)
        handle.close()
        artifact = bundle.save(handle.name, layout="mmap")
    else:
        artifact = Path(bundle)
    try:
        fleet = ServingFleet(artifact, replicas, batch_mode=batch_mode)
    except Exception:
        if owns:
            artifact.unlink(missing_ok=True)
        raise
    fleet.owns_artifact = owns
    return fleet


#: ``open_gateway``'s default ``shed_policy``: a fresh ``WatermarkShed``.
_WATERMARK = object()


def open_gateway(bundle: DeploymentBundle | str | Path, replicas: int = 2, *,
                 host: str = "127.0.0.1", port: int = 0,
                 batch_mode: str = "node",
                 shed_policy=_WATERMARK,
                 max_inflight: int = 256,
                 scale_policy=None,
                 autoscale_interval: float = 0.25,
                 scale_cooldown: float = 2.0, start: bool = True):
    """Open a network :class:`~repro.serving.gateway.ServingGateway`.

    Builds a fleet exactly like :func:`open_fleet` and puts the TCP
    front door in front of it: framed-protocol serving
    (:mod:`repro.serving.protocol`), admission control, and an optional
    autoscaler.  ``shed_policy`` is a
    :class:`~repro.serving.gateway.WatermarkShed` or ``None`` (shed only
    at the ``max_inflight`` ceiling); by default each gateway gets a
    fresh ``WatermarkShed()``.  A
    :class:`~repro.serving.gateway.QueueDepthScale` as ``scale_policy``
    grows/shrinks the replica pool from queue depth and rolling p95.
    The gateway owns the fleet: closing it closes the fleet (and removes
    a temp artifact if ``bundle`` was in-memory).  With ``port=0`` the
    OS picks a free port; read ``gateway.port`` after start.

    >>> gw = api.open_gateway("artifact.npz", replicas=2,  # doctest: +SKIP
    ...                       scale_policy=QueueDepthScale())
    >>> with gw:                                           # doctest: +SKIP
    ...     client = GatewayClient(*gw.address)
    ...     reply = client.serve_batch(ServeTask(batch=batch))
    """
    from repro.serving.gateway import ServingGateway, WatermarkShed

    if shed_policy is _WATERMARK:
        # fresh per gateway: the policy holds hysteresis state
        shed_policy = WatermarkShed()
    fleet = open_fleet(bundle, replicas, batch_mode=batch_mode)
    try:
        gateway = ServingGateway(
            fleet, host=host, port=port, shed_policy=shed_policy,
            max_inflight=max_inflight, scale_policy=scale_policy,
            autoscale_interval=autoscale_interval,
            scale_cooldown=scale_cooldown, owns_fleet=True)
        if start:
            gateway.start()
    except Exception:
        fleet.close(drain=False)
        raise
    return gateway


def evaluation_batch(bundle: DeploymentBundle) -> IncrementalBatch:
    """Regenerate the evaluation (test) batch a bundle was deployed for.

    The simulators are deterministic, so the bundle's recorded
    dataset/seed/scale reproduce the in-memory pipeline's batch exactly —
    this is what ``serve``, ``repro serve-online`` and the serving
    benchmark replay against.
    """
    dataset = bundle.metadata.get("dataset")
    if not dataset:
        raise ConfigError(
            "bundle metadata records no dataset; pass a batch explicitly")
    return _prepared(dataset, int(bundle.metadata.get("seed", 0)),
                     float(bundle.metadata.get("scale", 1.0))).test_batch

