"""Dataset registry and the inductive split protocol.

Each simulated dataset mirrors one of the paper's benchmarks at 10-30x
reduced scale (calibration table under "Reproduction substitutions" in
docs/architecture.md):

- ``pubmed-sim``  — small citation-style graph, 3 classes, sparse label
  rate (only 60 labeled training nodes, like the Planetoid split).
- ``flickr-sim``  — medium image-style graph, 7 classes, low homophily and
  noisy features (the regime where all methods sit near 50% in the paper).
- ``reddit-sim``  — large social-style graph, 41 classes, heavy-tailed
  degrees and strong structure (the regime where GNNs reach ~90%+).

Following the paper, the *original graph* handed to condensation contains
only the training nodes and their interconnections; validation nodes act as
support nodes for MCond's inductive loss; test nodes are the unseen
inductive batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.errors import DatasetError
from repro.graph.generators import SbmConfig, generate_sbm_graph
from repro.graph.graph import Graph
from repro.registry import DATASETS, register_dataset

__all__ = [
    "DatasetSpec",
    "IncrementalBatch",
    "InductiveSplit",
    "DATASET_SPECS",
    "dataset_names",
    "load_dataset",
    "make_split",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a simulated dataset.

    ``feature_snr`` sets how separable the *raw* features are: the class
    centers are scaled to ``feature_snr * feature_noise / sqrt(dim)`` per
    coordinate, so the expected center-to-center distance is roughly
    ``sqrt(2) * feature_snr`` noise standard deviations regardless of the
    feature dimension.  Low values force models to rely on message passing
    — the regime where the paper's comparisons are meaningful.
    """

    name: str
    num_nodes: int
    num_classes: int
    feature_dim: int
    avg_degree: float
    homophily: float
    degree_exponent: float
    feature_snr: float
    label_noise: float
    smoothing_rounds: int
    train_fraction: float
    val_fraction: float
    test_fraction: float
    labeled_train: int | None  # None => all training nodes are labeled
    paper_analogue: str

    def scaled(self, scale: float) -> "DatasetSpec":
        """Return a copy with the node count multiplied by ``scale``."""
        if scale <= 0:
            raise DatasetError(f"scale must be positive, got {scale}")
        nodes = max(int(round(self.num_nodes * scale)), 10 * self.num_classes)
        return DatasetSpec(
            name=self.name, num_nodes=nodes, num_classes=self.num_classes,
            feature_dim=self.feature_dim, avg_degree=self.avg_degree,
            homophily=self.homophily, degree_exponent=self.degree_exponent,
            feature_snr=self.feature_snr, label_noise=self.label_noise,
            smoothing_rounds=self.smoothing_rounds,
            train_fraction=self.train_fraction,
            val_fraction=self.val_fraction, test_fraction=self.test_fraction,
            labeled_train=self.labeled_train,
            paper_analogue=self.paper_analogue)


DATASET_SPECS: dict[str, DatasetSpec] = {
    "pubmed-sim": DatasetSpec(
        name="pubmed-sim", num_nodes=2000, num_classes=3, feature_dim=128,
        avg_degree=4.5, homophily=0.93, degree_exponent=0.0,
        feature_snr=1.7, label_noise=0.10, smoothing_rounds=0,
        train_fraction=0.80, val_fraction=0.08, test_fraction=0.12,
        labeled_train=60,
        paper_analogue="Pubmed (19,717 nodes / 44,338 edges / 500 feats / 3 classes)"),
    "flickr-sim": DatasetSpec(
        name="flickr-sim", num_nodes=4400, num_classes=7, feature_dim=128,
        avg_degree=20.0, homophily=0.45, degree_exponent=1.6,
        feature_snr=1.15, label_noise=0.25, smoothing_rounds=0,
        train_fraction=0.50, val_fraction=0.25, test_fraction=0.25,
        labeled_train=None,
        paper_analogue="Flickr (89,250 nodes / 899,756 edges / 500 feats / 7 classes)"),
    "reddit-sim": DatasetSpec(
        name="reddit-sim", num_nodes=7700, num_classes=41, feature_dim=160,
        avg_degree=50.0, homophily=0.88, degree_exponent=1.3,
        feature_snr=1.5, label_noise=0.05, smoothing_rounds=0,
        train_fraction=0.66, val_fraction=0.10, test_fraction=0.24,
        labeled_train=None,
        paper_analogue="Reddit (232,965 nodes / 11.6M edges / 602 feats / 41 classes)"),
    "tiny-sim": DatasetSpec(
        name="tiny-sim", num_nodes=300, num_classes=3, feature_dim=16,
        avg_degree=6.0, homophily=0.85, degree_exponent=0.0,
        feature_snr=2.5, label_noise=0.05, smoothing_rounds=0,
        train_fraction=0.60, val_fraction=0.15, test_fraction=0.25,
        labeled_train=None,
        paper_analogue="small fixture for fast tests"),
}


for _spec in DATASET_SPECS.values():
    register_dataset(_spec.name)(_spec)


def dataset_names() -> list[str]:
    """Registered dataset identifiers."""
    return DATASETS.keys()


@dataclass(frozen=True)
class IncrementalBatch:
    """An inductive batch: features plus its connectivity (Eq. 3 inputs).

    Attributes
    ----------
    features:
        ``(n, d)`` features ``x`` of the unseen nodes.
    incremental:
        ``(n, N)`` adjacency ``a`` into the original (training) graph.
    intra:
        ``(n, n)`` adjacency ``ea`` among the unseen nodes (used only in
        the graph-batch setting).
    labels:
        ``(n,)`` ground-truth labels for evaluation.
    """

    features: np.ndarray
    incremental: sp.csr_matrix
    intra: sp.csr_matrix
    labels: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "IncrementalBatch":
        """Restrict the batch to ``indices`` (used for mini-batch serving)."""
        idx = np.asarray(indices, dtype=np.int64)
        return IncrementalBatch(
            features=self.features[idx],
            incremental=self.incremental[idx].tocsr(),
            intra=self.intra[idx][:, idx].tocsr(),
            labels=self.labels[idx])


class InductiveSplit:
    """A dataset with the paper's inductive evaluation protocol.

    The *original graph* (to be condensed, and used as the deployment
    baseline) is the induced subgraph on training nodes.  Validation nodes
    double as MCond's support nodes; test nodes form the inductive batch.
    """

    def __init__(self, full: Graph, train_idx: np.ndarray, val_idx: np.ndarray,
                 test_idx: np.ndarray, labeled_idx: np.ndarray | None = None,
                 name: str = "custom") -> None:
        self.full = full
        self.train_idx = np.asarray(train_idx, dtype=np.int64)
        self.val_idx = np.asarray(val_idx, dtype=np.int64)
        self.test_idx = np.asarray(test_idx, dtype=np.int64)
        self.name = name
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if np.unique(all_idx).size != all_idx.size:
            raise DatasetError("train/val/test indices overlap")
        if all_idx.size > full.num_nodes:
            raise DatasetError("more split indices than nodes")
        if labeled_idx is None:
            labeled_idx = self.train_idx
        self.labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
        if not np.isin(self.labeled_idx, self.train_idx).all():
            raise DatasetError("labeled indices must be a subset of train indices")

    # ------------------------------------------------------------------
    @cached_property
    def original(self) -> Graph:
        """The original graph ``T``: training nodes and their edges only."""
        return self.full.subgraph(self.train_idx)

    @cached_property
    def labeled_in_original(self) -> np.ndarray:
        """Positions of labeled nodes within :attr:`original` row order."""
        position = {int(node): row for row, node in enumerate(self.train_idx)}
        return np.asarray([position[int(i)] for i in self.labeled_idx], dtype=np.int64)

    @property
    def num_classes(self) -> int:
        return self.full.num_classes

    def incremental_batch(self, which: str) -> IncrementalBatch:
        """Build the inductive batch for ``which`` in {'val', 'test'}."""
        if which == "val":
            idx = self.val_idx
        elif which == "test":
            idx = self.test_idx
        else:
            raise DatasetError(f"unknown batch {which!r}; use 'val' or 'test'")
        if self.full.labels is None:
            raise DatasetError("full graph has no labels")
        return IncrementalBatch(
            features=self.full.features[idx],
            incremental=self.full.cross_adjacency(idx, self.train_idx),
            intra=self.full.adjacency[idx][:, idx].tocsr(),
            labels=self.full.labels[idx])

    def __repr__(self) -> str:
        return (
            f"InductiveSplit(name={self.name!r}, nodes={self.full.num_nodes}, "
            f"train={self.train_idx.size}, val={self.val_idx.size}, "
            f"test={self.test_idx.size}, labeled={self.labeled_idx.size})")


def make_split(graph: Graph, train_fraction: float, val_fraction: float,
               test_fraction: float, labeled_train: int | None,
               rng: np.random.Generator, name: str = "custom") -> InductiveSplit:
    """Randomly partition ``graph`` into an :class:`InductiveSplit`.

    Guarantees at least one labeled training node per class (required by
    class-balanced condensation).
    """
    total = train_fraction + val_fraction + test_fraction
    if total > 1.0 + 1e-9:
        raise DatasetError(f"split fractions sum to {total} > 1")
    n = graph.num_nodes
    order = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    n_val = int(round(val_fraction * n))
    n_test = min(int(round(test_fraction * n)), n - n_train - n_val)
    train_idx = order[:n_train]
    val_idx = order[n_train:n_train + n_val]
    test_idx = order[n_train + n_val:n_train + n_val + n_test]

    labeled_idx = train_idx
    if labeled_train is not None:
        if graph.labels is None:
            raise DatasetError("cannot subsample labels on an unlabeled graph")
        labeled_idx = _sample_labeled(graph.labels, train_idx, labeled_train, rng)
    split = InductiveSplit(graph, train_idx, val_idx, test_idx, labeled_idx, name)
    _ensure_class_coverage(graph, split)
    return split


def _sample_labeled(labels: np.ndarray, train_idx: np.ndarray, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Pick ``count`` labeled training nodes, class-balanced where possible."""
    classes = np.unique(labels[train_idx])
    per_class = max(count // classes.size, 1)
    chosen: list[np.ndarray] = []
    for cls in classes:
        candidates = train_idx[labels[train_idx] == cls]
        take = min(per_class, candidates.size)
        chosen.append(rng.choice(candidates, size=take, replace=False))
    flat = np.concatenate(chosen)
    if flat.size < count:
        remaining = np.setdiff1d(train_idx, flat, assume_unique=False)
        extra = rng.choice(remaining, size=min(count - flat.size, remaining.size),
                           replace=False)
        flat = np.concatenate([flat, extra])
    return np.sort(flat[:count])


def _ensure_class_coverage(graph: Graph, split: InductiveSplit) -> None:
    if graph.labels is None:
        return
    covered = np.unique(graph.labels[split.labeled_idx])
    if covered.size < graph.num_classes:
        missing = sorted(set(range(graph.num_classes)) - set(covered.tolist()))
        raise DatasetError(
            f"labeled training set misses classes {missing}; increase the "
            "label budget or dataset size")


def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> InductiveSplit:
    """Generate a simulated dataset by registry name.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    seed:
        Seed controlling both graph generation and the split.
    scale:
        Multiplier on the node count (benchmarks use 1.0; tests use less).
    """
    if name not in DATASETS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}")
    entry = DATASETS.get(name)
    if not isinstance(entry, DatasetSpec):
        # Plugin datasets register a loader callable instead of a spec.
        return entry(seed=seed, scale=scale)
    spec = entry
    if scale != 1.0:
        spec = spec.scaled(scale)
    rng = np.random.default_rng(seed)
    class_sizes = _imbalanced_class_sizes(spec, rng)
    feature_noise = 1.0
    config = SbmConfig(
        class_sizes=class_sizes,
        feature_dim=spec.feature_dim,
        avg_degree=spec.avg_degree,
        homophily=spec.homophily,
        degree_exponent=spec.degree_exponent,
        feature_noise=feature_noise,
        center_scale=spec.feature_snr * feature_noise / np.sqrt(spec.feature_dim),
        label_noise=spec.label_noise,
        smoothing_rounds=spec.smoothing_rounds,
    )
    graph = generate_sbm_graph(config, seed=rng)
    labeled = spec.labeled_train
    return make_split(graph, spec.train_fraction, spec.val_fraction,
                      spec.test_fraction, labeled, rng, name=spec.name)


def _imbalanced_class_sizes(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Mildly imbalanced class sizes (real datasets are never uniform)."""
    weights = rng.dirichlet(np.full(spec.num_classes, 8.0))
    sizes = np.maximum((weights * spec.num_nodes).astype(np.int64), 4)
    # Adjust the largest class so sizes sum exactly to num_nodes.
    sizes[np.argmax(sizes)] += spec.num_nodes - int(sizes.sum())
    if sizes.min() <= 0:
        raise DatasetError("class size adjustment produced an empty class")
    return sizes
