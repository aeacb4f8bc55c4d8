"""Architecture generalizability: one condensed graph, every GNN.

A key property of graph condensation (paper Table IV): the synthetic graph
and mapping matrix are model-agnostic.  This example condenses once with
MCond, then sweeps **every architecture in** ``repro.nn.models.MODELS`` —
adding an entry to that table makes it part of this sweep —
training each on the synthetic graph and serving inductive nodes both on
the original graph (S→O) and on the synthetic graph (S→S).

Run:  python examples/cross_architecture.py
"""

from __future__ import annotations

from repro import api
from repro.graph import load_dataset
from repro.inference import InductiveServer
from repro.nn.models import MODELS


def main() -> None:
    split = load_dataset("flickr-sim", seed=0)
    print(f"dataset: {split!r}")
    condensed = api.condense("flickr-sim", method="mcond", budget=70,
                             seed=0, profile="quick")
    print(f"condensed once: {condensed!r}\n")

    test = split.incremental_batch("test")
    header = (f"{'architecture':<13} {'SO accuracy':>11} {'SS accuracy':>11} "
              f"{'SO ms':>8} {'SS ms':>8}")
    print(header)
    print("-" * len(header))
    for arch in MODELS:
        bundle = api.deploy("flickr-sim", condensed=condensed, model=arch,
                            seed=0, profile="quick")
        model = bundle.model()
        on_original = InductiveServer(model, "original", split.original).run(
            test, batch_mode="graph")
        on_synthetic = api.serve(bundle, test, batch_mode="graph")
        print(f"{arch:<13} {on_original.accuracy:>11.3f} "
              f"{on_synthetic.accuracy:>11.3f} "
              f"{on_original.mean_batch_milliseconds:>8.2f} "
              f"{on_synthetic.mean_batch_milliseconds:>8.2f}")

    print("\nevery architecture serves on the synthetic graph at a fraction "
          "of the original-graph latency.")


if __name__ == "__main__":
    main()
