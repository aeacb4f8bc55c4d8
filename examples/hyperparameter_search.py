"""Training many model variants cheaply — the intro's motivating workload.

The paper motivates condensation with settings where one GNN must be
trained many times (architecture search, hyper-parameter tuning, continual
learning).  This example tunes SGC's propagation depth and learning rate:
every candidate trains on MCond's 60-node synthetic graph instead of the
1,600-node original, then the winner is validated for *deployment on the
synthetic graph* — no original-graph access needed after condensation.

Run:  python examples/hyperparameter_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.condense import MCondConfig, MCondReducer
from repro.graph import load_dataset, symmetric_normalize
from repro.nn import TrainConfig, make_model, train_node_classifier
from repro.serving import PreparedDeployment

GRID = [(k_hops, lr) for k_hops in (1, 2, 3) for lr in (0.01, 0.05, 0.2)]


def tune(split, operator, features, labels, train_idx, validate, tag):
    """Grid-search SGC on one graph; returns (best_config, best_acc, time)."""
    best = (None, -1.0)
    start = time.perf_counter()
    for k_hops, lr in GRID:
        model = make_model("sgc", split.original.feature_dim,
                           split.num_classes, seed=0, k_hops=k_hops)
        train_node_classifier(model, operator, features, labels, train_idx,
                              config=TrainConfig(epochs=60, patience=60,
                                                 lr=lr))
        score = validate(model)
        if score > best[1]:
            best = ((k_hops, lr), score)
    elapsed = time.perf_counter() - start
    print(f"{tag:<18} best={best[0]} val_acc={best[1]:.3f} "
          f"total={elapsed:.2f}s")
    return best, elapsed


def main() -> None:
    split = load_dataset("pubmed-sim", seed=0)
    print(f"dataset: {split!r}")
    print(f"grid: {len(GRID)} configurations\n")

    condensed = MCondReducer(
        MCondConfig(outer_loops=3, match_steps=10, mapping_steps=30,
                    seed=0)).reduce(split, budget=60)
    val = split.incremental_batch("val")

    def validator_for(deployment, condensed_graph):
        def validate(model):
            prepared = PreparedDeployment(model, deployment, split.original,
                                          condensed_graph)
            return prepared.evaluate(val, batch_size=val.num_nodes).accuracy
        return validate

    # Tuning on the original graph (expensive baseline).
    original = split.original
    _, time_original = tune(
        split, symmetric_normalize(original.adjacency), original.features,
        original.labels, split.labeled_in_original,
        validator_for("original", None), "on original")

    # Tuning on the synthetic graph (what condensation buys you).
    (best_cfg, best_acc), time_synthetic = tune(
        split, condensed.normalized_adjacency(), condensed.features,
        condensed.labels, np.arange(condensed.num_nodes),
        validator_for("synthetic", condensed), "on synthetic")

    print(f"\ntuning speedup: {time_original / time_synthetic:.1f}x "
          f"({time_original:.2f}s -> {time_synthetic:.2f}s)")

    # Deploy the winner on the synthetic graph and report test accuracy.
    k_hops, lr = best_cfg
    winner = make_model("sgc", original.feature_dim, split.num_classes,
                        seed=0, k_hops=k_hops)
    train_node_classifier(winner, condensed.normalized_adjacency(),
                          condensed.features, condensed.labels,
                          np.arange(condensed.num_nodes),
                          config=TrainConfig(epochs=100, patience=100, lr=lr))
    test = split.incremental_batch("test")
    report = PreparedDeployment(winner, "synthetic", original,
                                condensed).evaluate(test, batch_mode="graph")
    print(f"winning config {best_cfg} test accuracy: {report.accuracy:.3f}")


if __name__ == "__main__":
    main()
