"""Quickstart: the three-call facade — condense, deploy, serve.

Runs the paper's full offline/online split on the pubmed-like simulator
in under a minute:

1. ``api.condense``  — reduce the training graph to 60 synthetic nodes
   with MCond (synthetic graph + original→synthetic mapping matrix);
2. ``api.deploy``    — train the serving model on the synthetic graph and
   package a persistable :class:`~repro.api.DeploymentBundle`;
3. ``api.serve``     — attach the unseen test nodes to the synthetic
   graph via Eq. (11) and classify them, from a reloaded artifact, and
   compare against the full-graph baseline.

Every component is resolved by name ("pubmed-sim", "mcond", "sgc") —
see ``repro list`` for what is available.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import api


def main() -> None:
    # 1. Offline: condense the training graph once.
    condensed = api.condense("pubmed-sim", method="mcond", budget=60,
                             seed=0, profile="quick")
    print(f"condensed graph: {condensed!r}")

    # 2. Offline: train the deployment model on the synthetic graph and
    #    package graph + weights + metadata into one artifact.
    bundle = api.deploy("pubmed-sim", condensed=condensed, model="sgc",
                        seed=0, profile="quick")
    artifact = Path(tempfile.mkdtemp()) / "pubmed-mcond.npz"
    bundle.save(artifact)
    print(f"deployment bundle: {bundle!r}")
    print(f"saved to {artifact}")

    # 3. Online: a fresh process would start here — load and serve.
    reloaded = api.DeploymentBundle.load(artifact)
    synthetic_report = api.serve(reloaded, batch_mode="graph")

    # Baseline: the same flow without condensation (serve the full graph).
    whole = api.deploy("pubmed-sim", method="whole", seed=0, profile="quick")
    original_report = api.serve(whole, batch_mode="graph")

    synthetic_bytes = reloaded.storage_bytes()
    original_bytes = whole.storage_bytes()
    print()
    print(f"{'deployment':<12} {'accuracy':>9} {'ms/batch':>9} {'storage':>12}")
    print(f"{'original':<12} {original_report.accuracy:>9.3f} "
          f"{original_report.mean_batch_milliseconds:>9.2f} "
          f"{original_bytes / 1024:>10.1f}KB")
    print(f"{'synthetic':<12} {synthetic_report.accuracy:>9.3f} "
          f"{synthetic_report.mean_batch_milliseconds:>9.2f} "
          f"{synthetic_bytes / 1024:>10.1f}KB")
    print()
    speedup = (original_report.mean_batch_seconds
               / synthetic_report.mean_batch_seconds)
    print(f"speedup  : {speedup:.1f}x")
    print(f"smaller  : {original_bytes / synthetic_bytes:.1f}x")


if __name__ == "__main__":
    main()
