"""Shared experiment pipeline: prepare → reduce → train → evaluate.

:class:`ExperimentContext` memoizes the expensive stages (condensation and
model training) so every grid cell (:mod:`repro.experiments.grid`) can
share work — e.g. Table II evaluates MCond under three deployment settings
from a single condensation run, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.condense import CondensedGraph, MCondResult, reducer_entry
from repro.experiments.settings import (EffortProfile, MethodSpec, METHODS,
                                        current_profile)
from repro.graph.datasets import IncrementalBatch, InductiveSplit, load_dataset
from repro.graph.ops import symmetric_normalize
from repro.inference.engine import InductiveServer, InferenceReport
from repro.nn.models import GNNModel, make_model
from repro.nn.trainer import TrainConfig, train_node_classifier

if TYPE_CHECKING:
    from repro.experiments.grid import Cell

__all__ = ["PreparedDataset", "prepare_dataset", "ExperimentContext"]


@dataclass
class PreparedDataset:
    """A dataset with the derived objects every experiment needs."""

    name: str
    split: InductiveSplit
    val_batch: IncrementalBatch
    test_batch: IncrementalBatch

    @cached_property
    def operator(self):
        """Normalized adjacency of the original (training) graph."""
        return symmetric_normalize(self.split.original.adjacency)

    @property
    def original(self):
        return self.split.original

    def reduction_ratio(self, budget: int) -> float:
        """Effective ``r`` = synthetic nodes / original nodes."""
        return budget / self.split.original.num_nodes


def prepare_dataset(name: str, seed: int = 0, scale: float = 1.0) -> PreparedDataset:
    """Load a dataset and precompute its evaluation batches."""
    split = load_dataset(name, seed=seed, scale=scale)
    return PreparedDataset(
        name=name,
        split=split,
        val_batch=split.incremental_batch("val"),
        test_batch=split.incremental_batch("test"))


class ExperimentContext:
    """Caches condensation and training results for one prepared dataset."""

    def __init__(self, prepared: PreparedDataset,
                 profile: EffortProfile | None = None) -> None:
        self.prepared = prepared
        self.profile = profile or current_profile()
        self._reductions: dict[tuple, tuple[CondensedGraph, object]] = {}
        # keyed by id(condensed); each entry holds the graph itself, so the
        # id cannot be recycled by another graph while the entry lives
        self._models: dict[tuple, tuple[CondensedGraph | None, GNNModel]] = {}

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    # Loss weights tuned per (method, dataset) by validation accuracy,
    # exactly as the paper's grid search over {0, 0.01, 0.1, 1, 10, 100,
    # 1000} (Sec. IV-A).
    _TUNED: dict[str, dict[str, dict[str, float]]] = {
        "mcond": {
            "pubmed-sim": {"lambda_structure": 0.01},
            "flickr-sim": {"lambda_structure": 0.1},
            "reddit-sim": {"lambda_structure": 0.1},
        },
    }

    def reducer_config(self, method: str, **overrides) -> dict:
        """Flat config for ``method`` at the context's effort profile.

        The method's :data:`~repro.condense.REDUCERS` entry declares which
        profile fields it understands (``profile_params``); per-dataset
        tuned weights and caller overrides are layered on top.
        """
        entry = reducer_entry(method)
        cfg = {name: getattr(self.profile, name)
               for name in entry.profile_params}
        # The sharded wrapper runs another method per shard: layer the
        # *inner* method's tuned weights so `--shards K` keeps the same
        # per-dataset hyper-parameters as the direct run.
        tuned_key = entry.name
        if entry.name == "sharded":
            tuned_key = overrides.get("inner", "mcond")
        cfg.update(self._TUNED.get(tuned_key, {}).get(self.prepared.name, {}))
        cfg.update(overrides)
        return cfg

    def reduce(self, method: str, budget: int, seed: int = 0,
               **overrides) -> CondensedGraph:
        """Run (or fetch) a reduction method at the given budget."""
        return self._reduction(method, budget, seed, overrides)[0]

    def mcond_result(self, budget: int, seed: int = 0, **overrides) -> MCondResult:
        """Full MCond result (mapping module + loss histories)."""
        return self._reduction("mcond", budget, seed, overrides)[1]

    def _reduction(self, method: str, budget: int, seed: int,
                   overrides: dict) -> tuple[CondensedGraph, object]:
        """``(condensed, kept result or None)``, memoized on the built
        reducer's resolved settings: an override that restates a default
        or a tuned weight is the same run as leaving it out."""
        entry = reducer_entry(method)
        reducer = entry.factory(
            seed=seed, **self.reducer_config(method, **overrides))
        key = (entry.name, budget, _resolved_settings(reducer))
        if key not in self._reductions:
            condensed = reducer.reduce(self.prepared.split, budget)
            result = reducer.last_result if entry.keeps_result else None
            self._reductions[key] = (condensed, result)
        return self._reductions[key]

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.profile.train_epochs,
                           lr=self.profile.train_lr,
                           patience=self.profile.train_patience,
                           eval_every=5)

    def train(self, train_source: str, model_name: str = "sgc",
              condensed: CondensedGraph | None = None,
              validate_deployment: str | None = None,
              seed: int = 0, **model_kwargs) -> GNNModel:
        """Train a model on the original or a synthetic graph.

        ``validate_deployment`` controls which deployment the early-stopping
        validator simulates (defaults to the training side's graph).
        """
        if train_source not in ("original", "synthetic"):
            raise ConfigError(
                f"train_source must be 'original' or 'synthetic', got {train_source!r}")
        condensed_key = None if condensed is None else id(condensed)
        key = (train_source, model_name, condensed_key, validate_deployment,
               seed, tuple(sorted(model_kwargs.items())))
        cached = self._models.get(key)
        if cached is not None and cached[0] is condensed:
            return cached[1]

        split = self.prepared.split
        graph = self.prepared.original
        model = make_model(model_name, graph.feature_dim, split.num_classes,
                           seed=seed, **model_kwargs)
        if validate_deployment is None:
            validate_deployment = "original" if train_source == "original" else (
                "synthetic" if condensed is not None and condensed.supports_attachment()
                else "original")
        validator = self._make_validator(model, validate_deployment, condensed)

        if train_source == "original":
            train_node_classifier(
                model, self.prepared.operator, graph.features, graph.labels,
                split.labeled_in_original, validator=validator,
                config=self.train_config())
        else:
            if condensed is None:
                raise ConfigError("synthetic training requires a condensed graph")
            operator = condensed.normalized_adjacency()
            train_node_classifier(
                model, operator, condensed.features, condensed.labels,
                np.arange(condensed.num_nodes), validator=validator,
                config=self.train_config())
        self._models[key] = (condensed, model)
        return model

    def _make_validator(self, model: GNNModel, deployment: str,
                        condensed: CondensedGraph | None):
        """Validation accuracy through the exact Eq. 3 / Eq. 11 operator
        (``run``).  A fresh server per call: one held across training
        keeps its deployment alive and raises the training peak memory."""
        val_batch, original = self.prepared.val_batch, self.prepared.original
        if deployment == "synthetic" and (
                condensed is None or not condensed.supports_attachment()):
            deployment = "original"

        def validator(current: GNNModel) -> float:
            server = InductiveServer(current, deployment, original, condensed)
            return server.run(val_batch, batch_size=val_batch.num_nodes,
                              batch_mode="graph").accuracy

        return validator

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, model: GNNModel, deployment: str,
                 condensed: CondensedGraph | None = None,
                 which: str = "test", batch_mode: str = "graph",
                 batch_size: int = 1000, frozen: bool = False) -> InferenceReport:
        """Serve an evaluation batch and report accuracy/latency/memory."""
        batch = self.prepared.test_batch if which == "test" else self.prepared.val_batch
        server = InductiveServer(model, deployment, self.prepared.original,
                                 condensed)
        return server.run(batch, batch_size=batch_size, batch_mode=batch_mode,
                          frozen=frozen)

    # ------------------------------------------------------------------
    # One grid cell
    # ------------------------------------------------------------------
    def assemble(self, cell: Cell) -> tuple[GNNModel, str, CondensedGraph | None]:
        """``(model, deployment, served graph)`` behind one grid cell.

        Reduces (if the method does) and trains; with ``cell.delta`` set the
        served graph is the trained mapping re-thresholded at that Eq. 14
        ``delta``, while the model stays the one trained on the reducer's
        own graph (Fig. 6 needs no retraining).
        """
        spec: MethodSpec = METHODS[cell.method]
        condensed = result = None
        if spec.reducer is not None:
            condensed, result = self._reduction(spec.reducer, cell.budget,
                                                cell.seed, dict(cell.overrides))
        model = self.train(spec.train_source, model_name=cell.model,
                           condensed=condensed,
                           validate_deployment=spec.eval_deployment
                           if condensed is not None else "original",
                           seed=cell.seed)
        if cell.delta is not None:
            if result is None:
                raise ConfigError(
                    f"method {cell.method!r} keeps no trained mapping to "
                    "re-threshold at delta")
            condensed = result.condensed_with_threshold(cell.delta)
        return model, spec.eval_deployment, condensed

    def run_method(self, cell: Cell) -> InferenceReport:
        """Reduce (if needed), train, and evaluate one cell end to end."""
        model, deployment, condensed = self.assemble(cell)
        return self.evaluate(model, deployment, condensed,
                             batch_mode=cell.batch_mode,
                             batch_size=cell.request_size or 1000,
                             frozen=cell.operator == "frozen")


def _resolved_settings(reducer) -> tuple:
    """Every public setting of a built reducer, hashable; a dataclass
    config is expanded field by field."""
    def freeze(value):
        if is_dataclass(value):
            value = asdict(value)
        if isinstance(value, dict):
            return tuple(sorted((k, freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    return freeze({name: value for name, value in vars(reducer).items()
                   if not name.startswith(("_", "last_"))})
