"""The paper's tables and figures as one experiment grid, per dataset.

Runs the presets of :mod:`repro.experiments.grid` on each dataset — Fig. 5
on reddit-sim and Fig. 7 on flickr-sim only, as in the paper, and the
warm-start ablation on pubmed-sim only — asserts that no paper ordering
is violated, and writes the rows to ``paper-grid-<dataset>.json`` in the
working directory.  ``REPRO_EFFORT`` (quick | full) picks the profile.
Run it with single-threaded BLAS, as the perf harness does: Table IV's
latency ordering is wall-clock, and threaded BLAS on these small matrices
turns a busy neighbour core into latency spikes::

    OMP_NUM_THREADS=1 REPRO_EFFORT=quick PYTHONPATH=src \\
        python -m pytest -q -s benchmarks/bench_paper_grid.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (PRESETS, ExperimentContext, current_profile,
                               dataset_budgets, format_table, paper_orderings,
                               prepare_dataset, run_grid)

DATASETS = ("pubmed-sim", "flickr-sim", "reddit-sim")
ONLY_ON = {"fig5": "reddit-sim", "fig7": "flickr-sim",
           "warmstart": "pubmed-sim"}
COLUMNS = ["presets", "method", "budget", "model", "overrides", "delta",
           "batch_mode", "accuracy", "time_ms", "memory_mb", "mapping_nnz",
           "speedup_vs_whole", "lp", "ep", "prop_time_ms"]


@pytest.mark.parametrize("dataset", DATASETS)
def test_paper_grid(dataset):
    profile = current_profile()
    context = ExperimentContext(prepare_dataset(dataset, seed=0), profile)
    budgets = dataset_budgets(dataset)
    presets = {name: cells(budgets) for name, cells in PRESETS.items()
               if ONLY_ON.get(name, dataset) == dataset}
    # one grid: a cell several presets share is measured once
    cells = list(dict.fromkeys(c for cells in presets.values() for c in cells))
    rows = [dict(row, presets=[name for name, mine in presets.items()
                               if cell in mine])
            for cell, row in zip(cells, run_grid(context, cells))]
    violations = paper_orderings(rows)
    Path(f"paper-grid-{dataset}.json").write_text(json.dumps(
        {"dataset": dataset, "profile": profile.name, "rows": rows,
         "violations": violations}, indent=1) + "\n")
    print()
    print(format_table(rows, COLUMNS,
                       title=f"paper grid — {dataset} ({profile.name})"))
    assert violations == []
