"""Graph reduction methods: coresets, VNG, GCond, DosCond, and MCond.

:data:`REDUCERS` is the table of every method by name; prefer resolving
reducers through :func:`make_reducer` or the :mod:`repro.api` facade
over instantiating the classes directly.
"""

from dataclasses import dataclass
from typing import Callable

from repro.errors import RegistryError
from repro.condense.base import (
    CondensedGraph,
    GraphReducer,
    allocate_class_counts,
    selection_mapping,
)
from repro.condense.coreset import (
    CoresetReducer,
    RandomCoreset,
    DegreeCoreset,
    HerdingCoreset,
    KCenterCoreset,
    sgc_embeddings,
)
from repro.condense.vng import VngReducer, weighted_kmeans
from repro.condense.losses import (
    gradient_matching_loss,
    structure_loss,
    transductive_loss,
    inductive_loss,
)
from repro.condense.mapping import (
    MappingMatrix,
    class_aware_logits,
    sparsify_matrix,
    class_block_mass,
)
from repro.condense.gcond import (
    gcond_factory,
    PairwiseAdjacency,
    dense_normalize_tensor,
    SgcRelay,
    GCondConfig,
    GCondReducer,
    init_synthetic_features,
)
from repro.condense.mcond import (MCondConfig, MCondResult, MCondReducer,
                                  mcond_factory)
from repro.condense.doscond import (DosCondConfig, DosCondReducer,
                                    doscond_factory)
from repro.condense.sharded import (
    SHARED_PROFILE_PARAMS,
    ShardedReducer,
    ShardTask,
    apportion_budget,
    assign_support,
    coalesce_shards,
    merge_condensed,
    sharded_factory,
)


@dataclass(frozen=True)
class ReducerEntry:
    """One reduction method of :data:`REDUCERS`.

    ``factory(seed=..., **cfg)`` builds a ready-to-run
    :class:`~repro.condense.base.GraphReducer`.  ``description`` is the
    line ``repro list`` prints.  ``profile_params`` names the
    :class:`~repro.experiments.settings.EffortProfile` fields the factory
    understands (e.g. ``outer_loops``) so the pipeline can inject compute
    budgets without knowing the method.  ``keeps_result`` says the built
    reducer exposes ``last_result``.
    """

    name: str
    factory: Callable[..., GraphReducer]
    description: str
    profile_params: tuple[str, ...] = ()
    keeps_result: bool = False


#: Every reduction method by name: Tables II–III's coresets and baselines,
#: MCond, and the sharded wrapper around any of them.
REDUCERS = {entry.name: entry for entry in (
    ReducerEntry("random", RandomCoreset,
                 "class-balanced random node selection"),
    ReducerEntry("degree", DegreeCoreset, "highest-degree nodes per class"),
    ReducerEntry("herding", HerdingCoreset,
                 "Welling herding in the SGC latent space"),
    ReducerEntry("kcenter", KCenterCoreset,
                 "greedy k-center in the SGC latent space"),
    ReducerEntry("vng", VngReducer, "virtual node graph: weighted k-means "
                 "+ forward-pass adjacency fitting"),
    ReducerEntry("gcond", gcond_factory, "gradient-matching condensation "
                 "(no inductive mapping)",
                 ("outer_loops", "match_steps", "relay_steps")),
    ReducerEntry("doscond", doscond_factory, "one-step gradient matching "
                 "(no relay trajectory; fast, no inductive mapping)",
                 ("outer_loops", "match_steps")),
    ReducerEntry("mcond", mcond_factory, "mapping-aware condensation (the "
                 "paper's method; learns the inductive mapping M)",
                 ("outer_loops", "match_steps", "mapping_steps",
                  "relay_steps"), keeps_result=True),
    ReducerEntry("sharded", sharded_factory, "partition, condense per shard "
                 "in parallel worker processes, and merge (wraps any "
                 "registered method)", SHARED_PROFILE_PARAMS),
)}


def reducer_entry(method: str) -> ReducerEntry:
    """The :data:`REDUCERS` entry named ``method``."""
    if method not in REDUCERS:
        raise RegistryError(
            f"unknown reduction method {method!r}; "
            f"available: {', '.join(sorted(REDUCERS))}")
    return REDUCERS[method]


def make_reducer(method: str, seed: int = 0, **cfg) -> GraphReducer:
    """Build the reduction method named ``method``.

    ``cfg`` is passed through to the factory; invalid options surface as
    the method's own config errors.
    """
    return reducer_entry(method).factory(seed=seed, **cfg)


__all__ = [
    "CondensedGraph", "GraphReducer", "allocate_class_counts",
    "selection_mapping",
    "CoresetReducer", "RandomCoreset", "DegreeCoreset", "HerdingCoreset",
    "KCenterCoreset", "sgc_embeddings",
    "VngReducer", "weighted_kmeans",
    "gradient_matching_loss", "structure_loss", "transductive_loss",
    "inductive_loss",
    "MappingMatrix", "class_aware_logits", "sparsify_matrix",
    "class_block_mass",
    "PairwiseAdjacency", "dense_normalize_tensor", "SgcRelay",
    "GCondConfig", "GCondReducer", "init_synthetic_features",
    "MCondConfig", "MCondResult", "MCondReducer",
    "DosCondConfig", "DosCondReducer",
    "ShardedReducer", "ShardTask", "apportion_budget", "assign_support",
    "coalesce_shards", "merge_condensed",
    "ReducerEntry", "REDUCERS", "reducer_entry", "make_reducer",
]
