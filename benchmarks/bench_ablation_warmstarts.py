"""Ablation of the reproduction's warm-start substitutions.

The substitutions are listed under "Reproduction substitutions" in
docs/architecture.md.

The CPU-scale runs replace the paper's thousands of condensation epochs
with three warm starts: propagated-feature initialization of X', class-
agreement pretraining of the Eq. 6 adjacency MLP, and a wide-gap class-
aware mapping init.  This bench quantifies each choice's contribution on
pubmed-sim, plus DosCond (one-step matching) as a trajectory-matching
ablation — evidence that the substitutions do the work the long GPU runs
do in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.condense import DosCondConfig, DosCondReducer, MCondConfig, MCondReducer
from repro.experiments import format_table

VARIANTS = {
    "full": {},
    "no_prop_init": {"init_propagated": False},
    "no_adj_pretrain": {"adjacency_pretrain_steps": 0},
    "random_map_init": {"class_aware_init": False},
}


def _accuracy(contexts, condensed) -> float:
    context = contexts["pubmed-sim"]
    model = context.train("synthetic", condensed=condensed,
                          validate_deployment="synthetic", seed=0)
    return context.evaluate(model, "synthetic", condensed,
                            batch_mode="graph").accuracy


def test_warmstart_ablation(benchmark, contexts):
    context = contexts["pubmed-sim"]
    profile = context.profile

    def run() -> list[dict]:
        rows = []
        for name, overrides in VARIANTS.items():
            config = MCondConfig(outer_loops=profile.outer_loops,
                                 match_steps=profile.match_steps,
                                 mapping_steps=profile.mapping_steps,
                                 relay_steps=profile.relay_steps,
                                 seed=0, **overrides)
            condensed = MCondReducer(config).reduce(context.prepared.split, 60)
            rows.append({"variant": name,
                         "accuracy": _accuracy(contexts, condensed)})
        doscond = DosCondReducer(DosCondConfig(
            outer_loops=profile.outer_loops,
            match_steps=profile.match_steps, seed=0))
        condensed = doscond.reduce(context.prepared.split, 60)
        model = context.train("synthetic", condensed=condensed,
                              validate_deployment="original", seed=0)
        rows.append({
            "variant": "doscond (S->O)",
            "accuracy": context.evaluate(model, "original", None,
                                         batch_mode="graph").accuracy})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, ["variant", "accuracy"],
                       title="Warm-start ablation — pubmed-sim (budget 60)"))
    accuracy = {row["variant"]: row["accuracy"] for row in rows}
    assert accuracy["full"] >= accuracy["random_map_init"] - 0.05
    assert accuracy["full"] >= accuracy["no_adj_pretrain"] - 0.05
    assert all(np.isfinite(list(accuracy.values())))
