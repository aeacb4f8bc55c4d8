"""The experiment grid regenerating every table and figure of the paper."""

from repro.experiments.settings import (
    MethodSpec,
    METHODS,
    dataset_budgets,
    EffortProfile,
    QUICK,
    FULL,
    current_profile,
)
from repro.experiments.pipeline import (PreparedDataset, prepare_dataset,
                                        ExperimentContext)
from repro.experiments.reporting import format_table, mean_std
from repro.experiments.grid import (Cell, PRESETS, run_grid, paper_orderings,
                                    diagonal_dominance)

__all__ = [
    "MethodSpec", "METHODS", "dataset_budgets",
    "EffortProfile", "QUICK", "FULL", "current_profile",
    "PreparedDataset", "prepare_dataset", "ExperimentContext",
    "format_table", "mean_std",
    "Cell", "PRESETS", "run_grid", "paper_orderings",
    "diagonal_dominance",
]
