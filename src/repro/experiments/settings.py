"""Experiment settings: method matrix, budgets, effort profiles.

The paper's four deployment settings are encoded as (training source,
inference deployment) pairs per method:

=============  ==============  ==================  =================
method         reduction       trains on           infers on
=============  ==============  ==================  =================
whole          —               original (O)        original (O)
random/degree/
herding/
kcenter        coreset         original (O)        reduced (S)
vng            VNG             original (O)        virtual (S)
gcond          GCond           synthetic (S)       original (O)
doscond        DosCond         synthetic (S)       original (O)
mcond_os       MCond           original (O)        synthetic (S)
mcond_so       MCond           synthetic (S)       original (O)
mcond_ss       MCond           synthetic (S)       synthetic (S)
sharded        MCond per shard synthetic (S)       synthetic (S)
=============  ==============  ==================  =================

Budgets: the paper quotes reduction ratios ``r`` relative to the training
graph; at our ~20x reduced dataset scale the same ``r`` would leave fewer
synthetic nodes than classes, so budgets are specified as synthetic node
counts chosen to preserve the paper's *nodes-per-class*, and every report
prints both the budget and the effective ``r``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["MethodSpec", "METHODS", "method_names", "dataset_budgets",
           "EffortProfile", "QUICK", "FULL", "current_profile"]


@dataclass(frozen=True)
class MethodSpec:
    """How one Table II column is assembled."""

    name: str
    reducer: str | None        # a repro.condense.REDUCERS key
    train_source: str          # "original" | "synthetic"
    eval_deployment: str       # "original" | "synthetic"

    @property
    def setting(self) -> str:
        """The paper's arrow notation, e.g. ``S->O``."""
        train = "O" if self.train_source == "original" else "S"
        infer = "O" if self.eval_deployment == "original" else "S"
        return f"{train}->{infer}"


METHODS: dict[str, MethodSpec] = {
    "whole": MethodSpec("whole", None, "original", "original"),
    "random": MethodSpec("random", "random", "original", "synthetic"),
    "degree": MethodSpec("degree", "degree", "original", "synthetic"),
    "herding": MethodSpec("herding", "herding", "original", "synthetic"),
    "kcenter": MethodSpec("kcenter", "kcenter", "original", "synthetic"),
    "vng": MethodSpec("vng", "vng", "original", "synthetic"),
    "gcond": MethodSpec("gcond", "gcond", "synthetic", "original"),
    "doscond": MethodSpec("doscond", "doscond", "synthetic", "original"),
    "mcond_os": MethodSpec("mcond_os", "mcond", "original", "synthetic"),
    "mcond_so": MethodSpec("mcond_so", "mcond", "synthetic", "original"),
    "mcond_ss": MethodSpec("mcond_ss", "mcond", "synthetic", "synthetic"),
    "sharded": MethodSpec("sharded", "sharded", "synthetic", "synthetic"),
}


def method_names() -> list[str]:
    """All Table II method keys, in presentation order."""
    return list(METHODS)


# Budgets preserving the paper's synthetic-nodes-per-class at reduced scale.
_DATASET_BUDGETS: dict[str, tuple[int, ...]] = {
    "pubmed-sim": (30, 60),     # 50% / 100% of the 60-node label budget
    "flickr-sim": (35, 70),     # 5 / 10 nodes per class
    "reddit-sim": (82, 164),    # 2 / 4 nodes per class
    "tiny-sim": (9, 15),
}


def dataset_budgets(name: str) -> tuple[int, ...]:
    """Synthetic-node budgets evaluated for ``name`` (small, large)."""
    if name not in _DATASET_BUDGETS:
        raise ConfigError(
            f"no budgets registered for dataset {name!r}; "
            f"known: {', '.join(sorted(_DATASET_BUDGETS))}")
    return _DATASET_BUDGETS[name]


@dataclass(frozen=True)
class EffortProfile:
    """Compute budget knob shared by all experiment harnesses.

    ``quick`` keeps the full pipeline intact at CI-friendly cost; ``full``
    runs longer optimization and multiple seeds for tighter numbers.
    Select via the ``REPRO_EFFORT`` environment variable.
    """

    name: str
    train_epochs: int
    train_patience: int
    train_lr: float
    outer_loops: int
    match_steps: int
    mapping_steps: int
    relay_steps: int
    seeds: tuple[int, ...]
    inference_repeats: int

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("profile needs at least one seed")


QUICK = EffortProfile(
    name="quick", train_epochs=80, train_patience=12, train_lr=0.05,
    outer_loops=2, match_steps=8, mapping_steps=20, relay_steps=3,
    seeds=(0,), inference_repeats=2)

FULL = EffortProfile(
    name="full", train_epochs=200, train_patience=25, train_lr=0.05,
    outer_loops=4, match_steps=15, mapping_steps=40, relay_steps=3,
    seeds=(0, 1, 2), inference_repeats=5)

_PROFILES = {"quick": QUICK, "full": FULL}


def current_profile() -> EffortProfile:
    """Profile selected by ``REPRO_EFFORT`` (default: quick)."""
    key = os.environ.get("REPRO_EFFORT", "quick").lower()
    if key not in _PROFILES:
        raise ConfigError(
            f"REPRO_EFFORT={key!r} unknown; use one of {', '.join(_PROFILES)}")
    return _PROFILES[key]
