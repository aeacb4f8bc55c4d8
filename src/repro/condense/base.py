"""Common abstractions for graph reduction methods.

Every method (coreset selection, VNG, GCond, MCond) produces a
:class:`CondensedGraph`: a small weighted graph plus — when the method
supports inductive attachment — an ``(N, N')`` mapping matrix from original
to synthetic nodes.  Coreset methods get a one-hot selection mapping for
free (an inductive node keeps its original edges to selected nodes), which
lets a single inference engine serve every method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ArtifactError, CondensationError
from repro.graph.datasets import InductiveSplit
from repro.graph.ops import canonical_csr, dense_symmetric_normalize
from repro.tensor.sparse import dense_memory_bytes, sparse_memory_bytes

__all__ = ["CondensedGraph", "GraphReducer", "allocate_class_counts",
           "selection_mapping", "FORMAT_VERSION", "check_format_version"]

#: Version stamped into every persisted artifact.  Readers accept any
#: version up to the current one (version-1 files predate the stamp).
FORMAT_VERSION = 2


@dataclass
class CondensedGraph:
    """A reduced graph ``S = {A', X', Y'}`` with optional node mapping ``M``.

    Attributes
    ----------
    adjacency:
        ``(N', N')`` dense weighted adjacency ``A'`` (synthetic graphs are
        tiny, so dense storage is both simpler and faster).
    features:
        ``(N', d)`` synthetic node features ``X'``.
    labels:
        ``(N',)`` synthetic node labels ``Y'`` (predefined, class-balanced
        to match the original label distribution).
    mapping:
        Optional ``(N, N')`` mapping matrix ``M`` (sparse CSR); ``None``
        for methods that cannot attach inductive nodes (plain GCond).
    method:
        Name of the producing method, for reporting.
    """

    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    mapping: sp.csr_matrix | None = None
    method: str = "unknown"

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise CondensationError(
                f"synthetic adjacency must be square, got {self.adjacency.shape}")
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise CondensationError(
                "synthetic adjacency, features and labels disagree on N': "
                f"{self.adjacency.shape[0]}, {self.features.shape[0]}, "
                f"{self.labels.shape[0]}")
        if self.mapping is not None:
            self.mapping = canonical_csr(self.mapping)
            if self.mapping.shape[1] != n:
                raise CondensationError(
                    f"mapping columns ({self.mapping.shape[1]}) != N' ({n})")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def supports_attachment(self) -> bool:
        """Whether inductive nodes can be attached (mapping available)."""
        return self.mapping is not None

    def normalized_adjacency(self) -> np.ndarray:
        """Dense symmetric-normalized ``Â'`` used for deployment."""
        return dense_symmetric_normalize(self.adjacency, self_loops=True)

    def sparse_adjacency(self) -> sp.csr_matrix:
        """CSR view of ``A'`` with explicit zeros dropped."""
        csr = sp.csr_matrix(self.adjacency)
        csr.eliminate_zeros()
        return csr

    def storage_bytes(self, include_mapping: bool = True) -> int:
        """Deployment storage: sparse ``A'`` + dense ``X'`` (+ sparse ``M``).

        Mirrors the paper's memory criterion ``O(||A'||_0 + N' d)`` plus the
        mapping matrix that synthetic-graph deployment must keep around.
        """
        total = sparse_memory_bytes(self.sparse_adjacency())
        total += dense_memory_bytes(self.features)
        if include_mapping and self.mapping is not None:
            total += sparse_memory_bytes(self.mapping)
        return total

    def __repr__(self) -> str:
        mapping_part = "none"
        if self.mapping is not None:
            mapping_part = f"{self.mapping.shape} nnz={self.mapping.nnz}"
        return (
            f"CondensedGraph(method={self.method!r}, nodes={self.num_nodes}, "
            f"edges={int((self.adjacency > 0).sum())}, mapping={mapping_part})")

    # ------------------------------------------------------------------
    # Serialization: condense offline once, serve online many times.
    # ------------------------------------------------------------------
    def to_payload(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Flatten into ``np.savez``-ready arrays, keys prefixed by ``prefix``.

        :class:`repro.api.DeploymentBundle`, the one on-disk artifact,
        embeds a condensed graph in its archive through this payload.
        """
        payload: dict[str, np.ndarray] = {
            f"{prefix}adjacency": self.adjacency,
            f"{prefix}features": self.features,
            f"{prefix}labels": self.labels,
            f"{prefix}method": np.asarray(self.method),
        }
        if self.mapping is not None:
            coo = self.mapping.tocoo()
            payload[f"{prefix}mapping_row"] = coo.row
            payload[f"{prefix}mapping_col"] = coo.col
            payload[f"{prefix}mapping_data"] = coo.data
            payload[f"{prefix}mapping_shape"] = np.asarray(coo.shape)
        return payload

    @classmethod
    def from_payload(cls, archive, prefix: str = "") -> "CondensedGraph":
        """Rebuild from arrays produced by :meth:`to_payload`.

        ``archive`` is anything indexable by key with a ``.files`` (or
        ``.keys()``) listing — an open ``NpzFile`` or a plain dict.
        """
        keys = set(archive.files if hasattr(archive, "files") else archive.keys())
        required = {f"{prefix}adjacency", f"{prefix}features", f"{prefix}labels"}
        if not required <= keys:
            raise ArtifactError(
                f"archive is missing condensed-graph arrays {sorted(required - keys)}")
        mapping = None
        if f"{prefix}mapping_row" in keys:
            shape = tuple(int(v) for v in archive[f"{prefix}mapping_shape"])
            mapping = sp.coo_matrix(
                (archive[f"{prefix}mapping_data"],
                 (archive[f"{prefix}mapping_row"], archive[f"{prefix}mapping_col"])),
                shape=shape).tocsr()
        return cls(adjacency=archive[f"{prefix}adjacency"],
                   features=archive[f"{prefix}features"],
                   labels=archive[f"{prefix}labels"],
                   mapping=mapping,
                   method=str(archive[f"{prefix}method"]))


def check_format_version(archive, path) -> int:
    """Validate an archive's ``format_version`` stamp (missing => 1)."""
    version = 1
    if "format_version" in archive.files:
        version = int(archive["format_version"])
    if version > FORMAT_VERSION:
        raise ArtifactError(
            f"{path} uses artifact format v{version}, but this build reads "
            f"at most v{FORMAT_VERSION}; upgrade the library to load it")
    return version


class GraphReducer:
    """Interface implemented by every reduction method."""

    name: str = "base"

    def reduce(self, split: InductiveSplit, budget: int) -> CondensedGraph:
        """Produce a condensed graph with ``budget`` synthetic nodes."""
        raise NotImplementedError

    def _check_budget(self, split: InductiveSplit, budget: int) -> None:
        # Classes *present* among the labeled nodes, not the dataset's
        # global class count: a sharded run hands each worker a split
        # whose labeled subset may miss classes entirely (e.g. a
        # coalesced single-class shard), and only present classes ever
        # receive synthetic nodes (see allocate_class_counts).
        num_classes = split.num_classes
        if split.full.labels is not None and split.labeled_idx.size:
            num_classes = int(
                np.unique(split.full.labels[split.labeled_idx]).size)
        if budget < num_classes:
            raise CondensationError(
                f"budget {budget} is below the labeled class count "
                f"{num_classes}; every present class needs at least one "
                "synthetic node")
        if budget >= split.original.num_nodes:
            raise CondensationError(
                f"budget {budget} is not smaller than the original graph "
                f"({split.original.num_nodes} nodes)")


def allocate_class_counts(labels: np.ndarray, budget: int,
                          num_classes: int) -> np.ndarray:
    """Distribute ``budget`` synthetic nodes across classes.

    Follows the paper: synthetic labels are predefined to match the class
    distribution of the original (labeled) nodes, with at least one node
    per observed class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    present = counts > 0
    if budget < int(present.sum()):
        raise CondensationError(
            f"budget {budget} cannot cover {int(present.sum())} classes")
    allocation = np.zeros(num_classes, dtype=np.int64)
    allocation[present] = 1
    remaining = budget - int(allocation.sum())
    if remaining > 0:
        fractions = counts / counts.sum()
        extra = np.floor(fractions * remaining).astype(np.int64)
        allocation += extra
        shortfall = remaining - int(extra.sum())
        if shortfall > 0:
            # Largest-remainder distribution, restricted to classes that
            # actually have labeled nodes — sharded runs can see shards
            # whose labeled subset misses a class entirely, and a
            # synthetic node for an absent class could not be initialized.
            remainders = fractions * remaining - extra
            remainders[~present] = -np.inf
            order = np.argsort(-remainders, kind="stable")
            for cls in order[:shortfall]:
                allocation[cls] += 1
    return allocation


def selection_mapping(selected: np.ndarray, num_original: int) -> sp.csr_matrix:
    """One-hot ``(N, N')`` mapping for node-selection methods.

    ``M[i, j] = 1`` iff original node ``i`` *is* selected node ``j`` — so
    ``a M`` keeps exactly the inductive edges that point at selected nodes.
    """
    selected = np.asarray(selected, dtype=np.int64)
    data = np.ones(selected.size, dtype=np.float64)
    return sp.csr_matrix(
        (data, (selected, np.arange(selected.size))),
        shape=(num_original, selected.size))
