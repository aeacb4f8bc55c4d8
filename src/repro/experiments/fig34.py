"""Figures 3 & 4 — inference time and memory of every deployment option.

Figure 3 is the graph-batch setting, Figure 4 the node-batch setting; both
report per-batch inference latency and deployment memory for the reduced
graphs at each ratio plus the full original graph ("Whole", the 100%
column).  The headline numbers — MCond's speedup and compression over
Whole — are computed per row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.pipeline import ExperimentContext
from repro.experiments.settings import METHODS

__all__ = ["run_fig34", "FIG34_METHODS"]

FIG34_METHODS = ("random", "degree", "herding", "kcenter", "vng", "mcond_ss")


def run_fig34(context: ExperimentContext, budgets: Sequence[int],
              batch_mode: str = "graph",
              methods: Sequence[str] = FIG34_METHODS) -> list[dict]:
    """One dataset's panel of Fig. 3 (graph batch) or Fig. 4 (node batch).

    MCond appears once per budget ("MCond" in the figures covers both OS
    and SS since they share the synthetic-graph serving path); "Whole" is
    the original-graph deployment measured at 100%.
    """
    rows: list[dict] = []
    prepared = context.prepared
    seed = context.profile.seeds[0]
    repeats = context.profile.inference_repeats

    def measure(method: str, budget: int) -> dict:
        spec = METHODS[method]
        condensed = None
        if spec.reducer is not None:
            condensed = context.reduce(spec.reducer, budget, seed=seed)
        model = context.train(spec.train_source, condensed=condensed,
                              validate_deployment=spec.eval_deployment
                              if condensed is not None else "original",
                              seed=seed)
        times, memories, acc = [], [], 0.0
        for _ in range(repeats):
            report = context.evaluate(model, spec.eval_deployment, condensed,
                                      batch_mode=batch_mode)
            times.append(report.mean_batch_seconds)
            memories.append(report.memory_bytes)
            acc = report.accuracy
        return {
            "time_s": float(np.median(times)),
            "memory_bytes": int(np.mean(memories)),
            "accuracy": acc,
        }

    whole = measure("whole", budgets[0])
    for budget in budgets:
        ratio = prepared.reduction_ratio(budget)
        for method in methods:
            stats = measure(method, budget)
            rows.append({
                "dataset": prepared.name,
                "batch": batch_mode,
                "budget": budget,
                "r": f"{ratio:.2%}",
                "method": method,
                "time_ms": stats["time_s"] * 1e3,
                "memory_mb": stats["memory_bytes"] / 2**20,
                "speedup_vs_whole": whole["time_s"] / stats["time_s"],
                "compression_vs_whole": (whole["memory_bytes"]
                                         / stats["memory_bytes"]),
                "accuracy": stats["accuracy"],
            })
    rows.append({
        "dataset": prepared.name,
        "batch": batch_mode,
        "budget": prepared.original.num_nodes,
        "r": "100.00%",
        "method": "whole",
        "time_ms": whole["time_s"] * 1e3,
        "memory_mb": whole["memory_bytes"] / 2**20,
        "speedup_vs_whole": 1.0,
        "compression_vs_whole": 1.0,
        "accuracy": whole["accuracy"],
    })
    return rows
