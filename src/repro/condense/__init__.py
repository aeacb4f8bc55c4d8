"""Graph reduction methods: coresets, VNG, GCond, DosCond, and MCond.

Importing this package registers every method in
:data:`repro.registry.REDUCERS`; prefer resolving reducers by name
through :func:`repro.registry.make_reducer` or the :mod:`repro.api`
facade over instantiating the classes directly.
"""

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
    make_coreset,
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
    PairwiseAdjacency,
    dense_normalize_tensor,
    SgcRelay,
    GCondConfig,
    GCondReducer,
    init_synthetic_features,
)
from repro.condense.mcond import MCondConfig, MCondResult, MCondReducer
from repro.condense.doscond import DosCondConfig, DosCondReducer
from repro.condense.sharded import (
    ShardedReducer,
    ShardTask,
    apportion_budget,
    assign_support,
    coalesce_shards,
    merge_condensed,
)

__all__ = [
    "CondensedGraph", "GraphReducer", "allocate_class_counts",
    "selection_mapping",
    "CoresetReducer", "RandomCoreset", "DegreeCoreset", "HerdingCoreset",
    "KCenterCoreset", "sgc_embeddings", "make_coreset",
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
]
