"""Non-parametric calibration on the connected synthetic graph.

Paper Table III / Section IV-D: because MCond's mapping attaches unseen
nodes directly to the synthetic graph, classic label propagation (LP) and
error propagation (EP) can calibrate the GNN's inductive predictions at
negligible cost — the propagation runs over N' + n nodes instead of N + n.

Run:  python examples/calibration_lp_ep.py
"""

from __future__ import annotations

import numpy as np

from repro.condense import MCondConfig, MCondReducer
from repro.experiments import calibrate_lp_ep
from repro.graph import load_dataset
from repro.nn import TrainConfig, make_model, train_node_classifier
from repro.serving import PreparedDeployment


def main() -> None:
    split = load_dataset("pubmed-sim", seed=0)
    config = MCondConfig(outer_loops=3, match_steps=10, mapping_steps=30, seed=0)
    condensed = MCondReducer(config).reduce(split, budget=60)
    model = make_model("sgc", split.original.feature_dim, split.num_classes,
                       seed=0)
    train_node_classifier(model, condensed.normalized_adjacency(),
                          condensed.features, condensed.labels,
                          np.arange(condensed.num_nodes),
                          config=TrainConfig(epochs=100, patience=100))

    test = split.incremental_batch("test")
    print(f"dataset: {split!r}")
    print(f"condensed: {condensed!r}\n")
    header = (f"{'graph':<10} {'batch':<6} {'vanilla':>8} {'LP':>8} {'EP':>8} "
              f"{'prop ms':>8}")
    print(header)
    print("-" * len(header))

    for batch_mode in ("graph", "node"):
        for deployment in ("original", "synthetic"):
            row = calibrate_lp_ep(
                PreparedDeployment(model, deployment, split.original,
                                   condensed), test, batch_mode)
            label = "O" if deployment == "original" else "S"
            print(f"{label:<10} {batch_mode:<6} {row['vanilla']:>8.3f} "
                  f"{row['lp']:>8.3f} {row['ep']:>8.3f} "
                  f"{row['prop_time_ms']:>8.2f}")

    print("\npropagation on the synthetic graph is cheaper by roughly the "
          "graph-size ratio, while LP/EP keep (or improve) accuracy.")


if __name__ == "__main__":
    main()
