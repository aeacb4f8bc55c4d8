"""Graph substrate: containers, generators, datasets, inductive attachment."""

from repro.graph.graph import Graph
from repro.graph.ops import (
    canonical_csr,
    add_self_loops,
    remove_self_loops,
    symmetric_normalize,
    dense_symmetric_normalize,
    edge_homophily,
    adjacency_from_edges,
)
from repro.graph.incremental import (
    AttachedGraph,
    attach_to_original,
    attach_to_synthetic,
    convert_connections,
)
from repro.graph.generators import SbmConfig, generate_sbm_graph, smooth_features
from repro.graph.datasets import (
    DatasetSpec,
    IncrementalBatch,
    InductiveSplit,
    DATASET_SPECS,
    dataset_names,
    load_dataset,
    make_split,
)
from repro.graph.sampling import EdgeBatch, sample_edge_batch, iterate_minibatches
from repro.graph.stream import (
    DeltaEffect,
    GraphDelta,
    StreamingGraph,
    make_delta_trace,
    splice_csr_rows,
)
from repro.graph.partition import (
    PARTITIONERS,
    bfs_order,
    check_partition,
    degree_balanced_partition,
    make_partitioner,
    stratified_partition,
)

__all__ = [
    "Graph",
    "canonical_csr", "add_self_loops", "remove_self_loops",
    "symmetric_normalize", "dense_symmetric_normalize", "edge_homophily",
    "adjacency_from_edges",
    "AttachedGraph", "attach_to_original", "attach_to_synthetic",
    "convert_connections",
    "SbmConfig", "generate_sbm_graph", "smooth_features",
    "DatasetSpec", "IncrementalBatch", "InductiveSplit", "DATASET_SPECS",
    "dataset_names", "load_dataset", "make_split",
    "EdgeBatch", "sample_edge_batch", "iterate_minibatches",
    "DeltaEffect", "GraphDelta", "StreamingGraph", "make_delta_trace",
    "splice_csr_rows",
    "PARTITIONERS", "bfs_order", "check_partition",
    "degree_balanced_partition", "make_partitioner", "stratified_partition",
]
