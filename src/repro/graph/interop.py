"""NetworkX interoperability.

Real deployments often hold graphs in networkx; these converters bring
them into (and out of) the library's :class:`~repro.graph.graph.Graph`
container, preserving features and labels stored as node attributes.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = ["from_networkx", "to_networkx"]


def from_networkx(nx_graph: nx.Graph, feature_key: str = "x",
                  label_key: str = "y") -> Graph:
    """Convert a networkx graph with per-node feature/label attributes.

    Nodes are re-indexed to ``0..N-1`` in ``nx_graph.nodes()`` order.
    Every node must carry a ``feature_key`` attribute (array-like of one
    consistent length); ``label_key`` is optional but must be present on
    all nodes or none.
    """
    if nx_graph.number_of_nodes() == 0:
        raise GraphError("cannot convert an empty networkx graph")
    nodes = list(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}

    features: list[np.ndarray] = []
    labels: list[int] = []
    labelled = 0
    for node in nodes:
        data = nx_graph.nodes[node]
        if feature_key not in data:
            raise GraphError(
                f"node {node!r} is missing feature attribute {feature_key!r}")
        features.append(np.asarray(data[feature_key], dtype=np.float64))
        if label_key in data:
            labelled += 1
            labels.append(int(data[label_key]))
    if labelled not in (0, len(nodes)):
        raise GraphError(
            f"{labelled}/{len(nodes)} nodes have labels; label all or none")
    feature_matrix = np.vstack(features)

    rows, cols, weights = [], [], []
    for u, v, data in nx_graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        rows.extend((index[u], index[v]))
        cols.extend((index[v], index[u]))
        weights.extend((weight, weight))
    adjacency = sp.coo_matrix((weights, (rows, cols)),
                              shape=(len(nodes), len(nodes))).tocsr()
    label_array = np.asarray(labels, dtype=np.int64) if labelled else None
    return Graph(adjacency, feature_matrix, label_array)


def to_networkx(graph: Graph, feature_key: str = "x",
                label_key: str = "y") -> nx.Graph:
    """Convert a :class:`Graph` to networkx (undirected, weighted)."""
    out = nx.Graph()
    for i in range(graph.num_nodes):
        attributes = {feature_key: graph.features[i].copy()}
        if graph.labels is not None:
            attributes[label_key] = int(graph.labels[i])
        out.add_node(i, **attributes)
    coo = graph.adjacency.tocoo()
    for u, v, w in zip(coo.row, coo.col, coo.data):
        if u <= v and w != 0:
            out.add_edge(int(u), int(v), weight=float(w))
    return out
