"""One declarative experiment grid behind every paper table and figure.

A :class:`Cell` names one measurement: a Table II method (a ``METHODS``
key) at a budget, served by one model under one batch mode, request size
and operator.  :data:`PRESETS` maps each paper artefact — Tables II–V,
Figs. 3–7 and the warm-start ablation of "Reproduction substitutions" in
docs/architecture.md — to the cells that regenerate it.  :func:`run_grid`
measures cells under one protocol and one row schema (GCondenser's
methods × budgets × repeated runs, arXiv 2405.14246), and
:func:`paper_orderings` checks the paper's claims over the rows.

Every cell goes through :meth:`ExperimentContext.run_method`, whose memos
make cells that resolve to the same reducer configuration share one
condensation and one trained model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.condense.mapping import MappingMatrix, class_block_mass
from repro.errors import ConfigError, InferenceError
from repro.experiments.pipeline import ExperimentContext
from repro.experiments.reporting import mean_std
from repro.experiments.settings import METHODS
from repro.graph.datasets import IncrementalBatch
from repro.nn.metrics import accuracy
from repro.propagation.error_prop import error_propagation, softmax_rows
from repro.propagation.label_prop import label_propagation
from repro.serving.prepared import PreparedDeployment
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["Cell", "PRESETS", "run_grid", "paper_orderings",
           "diagonal_dominance", "calibrate_lp_ep"]

OPERATORS = ("exact", "frozen")
BATCH_MODES = ("graph", "node")
CORESETS = ("random", "degree", "herding", "kcenter")
TABLE2_METHODS = ("whole", *CORESETS, "vng", "mcond_os", "gcond",
                  "mcond_so", "mcond_ss")
FIG34_METHODS = ("whole", *CORESETS, "vng", "mcond_ss")
# Table III calibrates SGC trained on MCond's synthetic graph, on O and S.
TABLE3_METHODS = ("mcond_so", "mcond_ss")
ARCHITECTURES = ("gcn", "graphsage", "appnp", "cheby")
# Table V: MCond_SS under ablated optimization constraints.
ABLATIONS: dict[str, dict[str, bool]] = {
    "plain": {"use_structure_loss": False, "use_inductive_loss": False},
    "wo_str": {"use_structure_loss": False, "use_inductive_loss": True},
    "wo_ind": {"use_structure_loss": True, "use_inductive_loss": False},
    "full": {"use_structure_loss": True, "use_inductive_loss": True},
}
# The CPU-scale warm starts, each switched off in turn.
WARM_STARTS: dict[str, dict] = {
    "no_prop_init": {"init_propagated": False},
    "no_adj_pretrain": {"adjacency_pretrain_steps": 0},
    "random_map_init": {"class_aware_init": False},
}
DELTAS = (0.0, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.05, 0.1, 0.2, 0.4)
LAMBDAS = (0.0, 0.01, 0.1, 1.0, 10.0)
BETAS = (0.0, 1.0, 10.0, 100.0, 1000.0)
# Fig. 7 sweeps one loss weight at a time around these.
BASE_LAMBDA, BASE_BETA = 0.1, 100.0


@dataclass(frozen=True)
class Cell:
    """One grid measurement.

    ``budget`` is ignored (stored as ``None``) for methods that do not
    reduce.  ``overrides`` are reducer config overrides (a mapping or
    pairs; stored sorted).  ``delta`` re-thresholds the trained MCond
    mapping at Eq. 14's threshold without retraining.  ``request_size``
    is the number of inductive nodes per served request; ``None`` serves
    the whole evaluation batch in the paper's 1000-node mini-batches.
    ``operator`` is ``exact`` (Eq. 3 / Eq. 11) or ``frozen`` (base rows
    keep their standalone normalization; SGC only), as passed to
    ``PreparedDeployment.evaluate``.  :func:`run_grid` sets ``seed``
    from the effort profile.
    """

    method: str
    budget: int | None = None
    model: str = "sgc"
    overrides: tuple = ()
    delta: float | None = None
    batch_mode: str = "graph"
    request_size: int | None = None
    operator: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; known: {', '.join(METHODS)}")
        if self.operator not in OPERATORS:
            raise ConfigError(
                f"operator must be one of {', '.join(OPERATORS)}, "
                f"got {self.operator!r}")
        if METHODS[self.method].reducer is None:
            object.__setattr__(self, "budget", None)
        elif self.budget is None:
            raise ConfigError(f"method {self.method!r} needs a budget")
        object.__setattr__(self, "overrides",
                           tuple(sorted(dict(self.overrides).items())))


# ----------------------------------------------------------------------
# Presets: one per paper artefact, each a function of the budgets
# ----------------------------------------------------------------------
def _table2(budgets: Sequence[int]) -> list[Cell]:
    return [Cell(method, budget, batch_mode=mode) for mode in BATCH_MODES
            for budget in budgets for method in TABLE2_METHODS]


def _table3(budgets: Sequence[int]) -> list[Cell]:
    return [Cell(method, budgets[-1], batch_mode=mode) for mode in BATCH_MODES
            for method in TABLE3_METHODS]


def _table4(budgets: Sequence[int]) -> list[Cell]:
    return [Cell(method, budgets[-1], model=arch, batch_mode=mode)
            for arch in ARCHITECTURES for mode in BATCH_MODES
            for method in ("mcond_so", "mcond_ss")]


def _table5(budgets: Sequence[int]) -> list[Cell]:
    return [Cell("mcond_ss", budgets[-1], overrides=flags, batch_mode=mode)
            for flags in ABLATIONS.values() for mode in ("node", "graph")]


def _fig34(batch_mode: str) -> Callable[[Sequence[int]], list[Cell]]:
    return lambda budgets: [Cell(method, budget, batch_mode=batch_mode)
                            for budget in budgets for method in FIG34_METHODS]


def _fig5(budgets: Sequence[int]) -> list[Cell]:
    return [Cell("mcond_ss", budgets[0], batch_mode="node",
                 overrides={"class_aware_init": class_aware})
            for class_aware in (True, False)]


def _fig6(budgets: Sequence[int]) -> list[Cell]:
    return [Cell("mcond_os", budgets[-1], delta=delta, batch_mode="node")
            for delta in DELTAS]


def _fig7(budgets: Sequence[int]) -> list[Cell]:
    points = ([(lam, BASE_BETA) for lam in LAMBDAS]
              + [(BASE_LAMBDA, beta) for beta in BETAS])
    return [Cell("mcond_os", budgets[-1], batch_mode="node",
                 overrides={"lambda_structure": lam, "beta_inductive": beta})
            for lam, beta in points]


def _warmstart(budgets: Sequence[int]) -> list[Cell]:
    return ([Cell("mcond_ss", budgets[-1], overrides=flags)
             for flags in ({}, *WARM_STARTS.values())]
            + [Cell("doscond", budgets[-1])])


#: Paper artefact → cells, given the dataset's budgets (small, large).
PRESETS: dict[str, Callable[[Sequence[int]], list[Cell]]] = {
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "fig3": _fig34("graph"),
    "fig4": _fig34("node"),
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "warmstart": _warmstart,
}


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------
def run_grid(context: ExperimentContext, cells: Iterable[Cell]) -> list[dict]:
    """Measure each distinct cell over the profile's seeds; one row each.

    Every row carries the cell's coordinates plus accuracy mean and std
    over ``profile.seeds``, the median per-batch ``time_ms`` over
    ``profile.inference_repeats`` evaluations per seed, ``memory_mb``,
    ``mapping_nnz`` and ``speedup_vs_whole`` (``None`` without a
    ``whole`` row at the same model, batch mode, request size and
    operator).  Table III's calibration (:func:`calibrate_lp_ep`:
    ``vanilla``/``lp``/``ep``/``prop_time_ms``) fills in on its own cells
    (SGC on ``mcond_so`` / ``mcond_ss``, full batch, exact operator),
    Fig. 5's mapping statistics on rows with a trained MCond mapping;
    ``None`` elsewhere.
    """
    mapping_stats: dict[tuple, dict] = {}  # per trained mapping and seed
    rows = [_row(context, cell, mapping_stats)
            for cell in dict.fromkeys(cells)]
    whole = {_serving_key(row): row for row in rows
             if row["method"] == "whole"}
    for row in rows:
        ref = whole.get(_serving_key(row))
        row["speedup_vs_whole"] = (None if ref is None
                                   else ref["time_ms"] / row["time_ms"])
    return rows


def _serving_key(row: dict) -> tuple:
    return (row["model"], row["batch_mode"], row["request_size"],
            row["operator"])


def _row(context: ExperimentContext, cell: Cell, mapping_stats: dict) -> dict:
    prepared = context.prepared
    runs = [_measure(context, replace(cell, seed=seed), mapping_stats)
            for seed in context.profile.seeds]
    mean, std = mean_std([run.pop("accuracy") for run in runs])
    times = [t for run in runs for t in run.pop("times")]
    row = {
        "dataset": prepared.name,
        "method": cell.method,
        "setting": METHODS[cell.method].setting,
        "budget": cell.budget,
        "r": (None if cell.budget is None
              else prepared.reduction_ratio(cell.budget)),
        "original_nodes": prepared.original.num_nodes,
        "model": cell.model,
        "overrides": dict(cell.overrides),
        "delta": cell.delta,
        "batch_mode": cell.batch_mode,
        "request_size": cell.request_size,
        "operator": cell.operator,
        "accuracy": mean,
        "std": std,
        "time_ms": float(np.median(times)) * 1e3 if times else float("nan"),
        "speedup_vs_whole": None,  # filled in by run_grid
    }
    for field in runs[0]:
        values = [run[field] for run in runs]
        row[field] = (None if any(v is None for v in values)
                      else float(np.mean(values)))
    return row


def _measure(context: ExperimentContext, cell: Cell,
             mapping_stats: dict) -> dict:
    """One seed of one cell."""
    model, deployment, served = context.assemble(cell)
    mapping = None if served is None else served.mapping
    record = {
        "memory_mb": None,
        "mapping_nnz": 0 if mapping is None else int(mapping.nnz),
        "sparsity": (None if mapping is None
                     else 1.0 - mapping.nnz / (mapping.shape[0] * mapping.shape[1])),
        "vanilla": None, "lp": None, "ep": None, "prop_time_ms": None,
        **_mapping_stats(context, cell, mapping_stats),
    }
    if mapping is not None and mapping.nnz == 0:
        # Eq. 14 dropped every entry: no inductive node can attach
        return {**record, "accuracy": float("nan"), "times": []}
    reports = [context.run_method(cell)
               for _ in range(context.profile.inference_repeats)]
    record.update(accuracy=reports[0].accuracy,
                  times=[report.mean_batch_seconds for report in reports],
                  memory_mb=float(np.mean([report.memory_megabytes
                                           for report in reports])))
    if cell.method in TABLE3_METHODS and (cell.model, cell.request_size,
                                          cell.operator) == ("sgc", None, "exact"):
        record.update(calibrate_lp_ep(
            PreparedDeployment(model, deployment, context.prepared.original,
                               served),
            context.prepared.test_batch, cell.batch_mode))
    return record


def _mapping_stats(context: ExperimentContext, cell: Cell,
                   cache: dict) -> dict:
    """Fig. 5: class-block diagonal dominance of the trained mapping and of
    the class-aware initialization, and the mapping loss's first and last
    values; computed once per trained mapping and seed."""
    if METHODS[cell.method].reducer != "mcond":
        return dict.fromkeys(("diagonal_dominance", "init_diagonal_dominance",
                              "loss_first", "loss_last"))
    result = context.mcond_result(cell.budget, cell.seed, **dict(cell.overrides))
    # the context's memo keeps ``result`` alive, so its id stays its own
    key = (id(result), cell.seed)
    if key not in cache:
        labels = context.prepared.original.labels
        synthetic = result.condensed.labels
        num_classes = context.prepared.split.num_classes
        init = MappingMatrix.class_aware(labels, synthetic, seed=cell.seed)
        cache[key] = {
            "diagonal_dominance": diagonal_dominance(class_block_mass(
                result.mapping.normalized_array(), labels, synthetic,
                num_classes)),
            "init_diagonal_dominance": diagonal_dominance(class_block_mass(
                init.normalized_array(), labels, synthetic, num_classes)),
            "loss_first": result.mapping_losses[0],
            "loss_last": result.mapping_losses[-1],
        }
    return cache[key]


def diagonal_dominance(block_mass: np.ndarray) -> float:
    """Mean ratio of the diagonal entry to its row sum (1.0 = perfectly
    class-pure mapping)."""
    sums = block_mass.sum(axis=1)
    valid = sums > 0
    if not valid.any():
        return 0.0
    return float((np.diag(block_mass)[valid] / sums[valid]).mean())


def calibrate_lp_ep(deployment: PreparedDeployment, batch: IncrementalBatch,
                    batch_mode: str) -> dict:
    """Table III on one deployment: the vanilla forward over the whole
    attached ``batch`` against its LP- and EP-calibrated predictions, and
    the mean propagation time (it runs over ``N + n`` nodes on an original
    deployment, ``N' + n`` on a synthetic one).

    The batch is attached and normalized once, through the served exact
    operator (:meth:`PreparedDeployment.attach_normalize`); the forward,
    LP and EP all read that one operator, and ``prop_time_ms`` times the
    two propagations alone.
    """
    if batch_mode not in BATCH_MODES:
        raise InferenceError(
            f"batch_mode must be 'graph' or 'node', got {batch_mode!r}")
    alpha, iterations, gamma = 0.8, 20, 0.4
    operator, features, _ = deployment.attach_normalize(
        batch.incremental, batch.features,
        batch.intra if batch_mode == "graph" else None)
    model = deployment.model
    model.eval()
    with no_grad():
        logits = model(operator, Tensor(features)).data
    base_logits = logits[:deployment.num_base]
    inductive_logits = logits[deployment.num_base:]
    base_labels = (deployment.base.labels
                   if deployment.deployment == "original"
                   else deployment.condensed.labels)
    num_classes = logits.shape[1]
    start = time.perf_counter()
    lp_scores = label_propagation(
        operator, base_labels, num_classes,
        prior=softmax_rows(inductive_logits), alpha=alpha,
        iterations=iterations)
    lp_time = time.perf_counter() - start
    start = time.perf_counter()
    ep_scores = error_propagation(
        operator, base_labels, base_logits, inductive_logits, num_classes,
        alpha=alpha, iterations=iterations, gamma=gamma)
    ep_time = time.perf_counter() - start
    return {"vanilla": accuracy(inductive_logits, batch.labels),
            "lp": accuracy(lp_scores, batch.labels),
            "ep": accuracy(ep_scores, batch.labels),
            "prop_time_ms": (lp_time + ep_time) / 2 * 1e3}


# ----------------------------------------------------------------------
# The paper's orderings over grid rows
# ----------------------------------------------------------------------
def paper_orderings(rows: Sequence[dict]) -> list[str]:
    """Every violated paper ordering in ``rows``, one string each.

    Orderings select rows by coordinates, so each holds over whichever
    presets produced them and is skipped when its rows are absent.  The
    bounds are loose: the quick profile runs one seed at reduced scale.
    The Fig. 3–4 ``speedup_vs_whole`` floors are recorded, not checked:
    a wall-clock ratio on a shared 2-core machine fails them at any
    commit.
    """
    violations: list[str] = []
    for dataset in sorted({row["dataset"] for row in rows}):
        mine = [row for row in rows if row["dataset"] == dataset]
        violations.extend(f"{dataset} {claim}" for check in _ORDERINGS
                          for holds, claim in check(mine) if not holds)
    return violations


_PLAIN = {"model": "sgc", "overrides": {}, "delta": None,
          "request_size": None, "operator": "exact"}


def _matches(row: dict, **coordinates) -> bool:
    """Whether ``row`` sits at ``coordinates`` (defaults: the plain SGC
    cell)."""
    return all(row[name] == value
               for name, value in {**_PLAIN, **coordinates}.items())


def _select(rows: Sequence[dict], **coordinates) -> dict:
    """Rows at ``coordinates``, keyed by budget; a cell measured by several
    presets keeps its last row."""
    return {row["budget"]: row for row in rows if _matches(row, **coordinates)}


# Each check yields ``(holds, claim)`` for every ordering its rows allow.
def _table2_orderings(rows):
    for mode in BATCH_MODES:
        whole = _select(rows, method="whole", batch_mode=mode).get(None)
        for budget, row in _select(rows, method="mcond_os",
                                   batch_mode=mode).items():
            coresets = [_select(rows, method=name, batch_mode=mode).get(budget)
                        for name in CORESETS]
            if whole is None or None in coresets:
                continue
            acc, best = row["accuracy"], max(r["accuracy"] for r in coresets)
            where = f"Table II ({mode}, budget {budget}): mcond_os {acc:.4f}"
            yield (acc > best - 0.03,
                   f"{where} should beat the best coreset {best:.4f} - 0.03")
            yield (acc > whole["accuracy"] - 0.15,
                   f"{where} should approach whole {whole['accuracy']:.4f} - 0.15")


def _fig34_orderings(rows):
    for mode in BATCH_MODES:
        whole = _select(rows, method="whole", batch_mode=mode).get(None)
        mcond = _select(rows, method="mcond_ss", batch_mode=mode)
        if whole is None or not mcond:
            continue
        where = f"Fig. {3 if mode == 'graph' else 4} ({mode})"
        for budget, row in mcond.items():
            yield (whole["memory_mb"] / row["memory_mb"] > 1.0,
                   f"{where}: mcond_ss at budget {budget} ({row['memory_mb']:.4f}"
                   f" MB) must be smaller than whole ({whole['memory_mb']:.4f} MB)")
        small, large = mcond[min(mcond)], mcond[max(mcond)]
        if mode == "graph":
            yield (small["memory_mb"] <= large["memory_mb"] * 1.05,
                   f"{where}: budget {min(mcond)} must be at least as "
                   f"compressed as budget {max(mcond)}")


def _table3_orderings(rows):
    for mode in BATCH_MODES:
        on_original = _select(rows, method="mcond_so", batch_mode=mode)
        on_synthetic = _select(rows, method="mcond_ss", batch_mode=mode)
        for budget in on_original.keys() & on_synthetic.keys():
            where = f"Table III ({mode}, budget {budget})"
            pair = {"O": on_original[budget], "S": on_synthetic[budget]}
            for graph, row in pair.items():
                for name in ("lp", "ep"):
                    yield (row[name] >= row["vanilla"] - 0.05,
                           f"{where}, {graph}: {name} {row[name]:.4f} lost more "
                           f"than 0.05 to vanilla {row['vanilla']:.4f}")
            # the acceleration scales with N / N'; on the smallest graph
            # the fixed per-call overhead dominates
            floor = 1.0 if pair["S"]["original_nodes"] > 3000 else 0.2
            acceleration = (pair["O"]["prop_time_ms"]
                            / max(pair["S"]["prop_time_ms"], 1e-9))
            yield (acceleration > floor,
                   f"{where}: propagation acceleration {acceleration:.3f} "
                   f"must exceed {floor}")


def _table4_orderings(rows):
    for arch in ARCHITECTURES:
        for mode in BATCH_MODES:
            on_original = _select(rows, method="mcond_so", model=arch,
                                  batch_mode=mode)
            on_synthetic = _select(rows, method="mcond_ss", model=arch,
                                   batch_mode=mode)
            for budget in on_original.keys() & on_synthetic.keys():
                so, ss = on_original[budget], on_synthetic[budget]
                where = f"Table IV ({arch}, {mode}, budget {budget})"
                yield (ss["time_ms"] < so["time_ms"],
                       f"{where}: synthetic serving {ss['time_ms']:.3f} ms must "
                       f"be faster than original {so['time_ms']:.3f} ms")
                yield (ss["accuracy"] > so["accuracy"] - 0.25,
                       f"{where}: synthetic serving accuracy "
                       f"{ss['accuracy']:.4f} collapsed below "
                       f"{so['accuracy']:.4f} - 0.25")


def _table5_orderings(rows):
    for mode in BATCH_MODES:
        full = _select(rows, method="mcond_ss", batch_mode=mode,
                       overrides=ABLATIONS["full"])
        plain = _select(rows, method="mcond_ss", batch_mode=mode,
                        overrides=ABLATIONS["plain"])
        for budget in full.keys() & plain.keys():
            yield (full[budget]["accuracy"] >= plain[budget]["accuracy"] - 0.02,
                   f"Table V ({mode}, budget {budget}): full "
                   f"{full[budget]['accuracy']:.4f} should beat plain "
                   f"{plain[budget]['accuracy']:.4f} - 0.02")


def _fig5_orderings(rows):
    aware = _select(rows, method="mcond_ss", batch_mode="node",
                    overrides={"class_aware_init": True})
    random_init = _select(rows, method="mcond_ss", batch_mode="node",
                          overrides={"class_aware_init": False})
    for budget in aware.keys() & random_init.keys():
        row, where = aware[budget], f"Fig. 5 (budget {budget})"
        yield (row["diagonal_dominance"] > 0.5,
               f"{where}: the trained mapping is not diagonal-dominant")
        yield (row["init_diagonal_dominance"] > 0.5,
               f"{where}: the class-aware init is not diagonal-dominant")
        # the paper's lower *initial* loss inverts at this scale
        # (docs/architecture.md, "Reproduction substitutions")
        yield (row["loss_last"] < row["loss_first"],
               f"{where}: training did not reduce the class-aware mapping loss")
        yield (row["accuracy"] >= random_init[budget]["accuracy"] - 0.02,
               f"{where}: class-aware init {row['accuracy']:.4f} lost more "
               f"than 0.02 to random init {random_init[budget]['accuracy']:.4f}")


def _fig6_orderings(rows):
    sweep = [row for row in rows if row["delta"] is not None
             and _matches(row, method="mcond_os", batch_mode="node",
                          delta=row["delta"])]
    for budget in sorted({row["budget"] for row in sweep}):
        points = sorted((row for row in sweep if row["budget"] == budget),
                        key=lambda row: row["delta"])
        where = f"Fig. 6 (budget {budget})"
        sparsities = [row["sparsity"] for row in points]
        yield (all(b >= a - 1e-12 for a, b in zip(sparsities, sparsities[1:])),
               f"{where}: sparsity must be monotone in delta")
        accuracies = [row["accuracy"] for row in points
                      if not np.isnan(row["accuracy"])]
        if accuracies:
            small, best = max(accuracies[:4]), max(accuracies)
            yield (small >= best - 0.05,
                   f"{where}: small thresholds reach {small:.4f}, not within "
                   f"0.05 of the peak {best:.4f}")


def _fig7_orderings(rows):
    weights = {"lambda_structure", "beta_inductive"}
    sweep = [row for row in rows if set(row["overrides"]) == weights
             and _matches(row, method="mcond_os", batch_mode="node",
                          overrides=row["overrides"])]
    for budget in sorted({row["budget"] for row in sweep}):
        points = {(row["overrides"]["lambda_structure"],
                   row["overrides"]["beta_inductive"]): row["accuracy"]
                  for row in sweep if row["budget"] == budget}
        where = f"Fig. 7 (budget {budget})"
        spread = max(points.values()) - min(points.values())
        yield spread < 0.30, f"{where}: the sweep spans {spread:.4f}, not < 0.30"
        tuned = points.get((BASE_LAMBDA, BASE_BETA))
        off = points.get((BASE_LAMBDA, 0.0))
        if tuned is not None and off is not None:
            yield (tuned >= off - 0.05,
                   f"{where}: beta={BASE_BETA} ({tuned:.4f}) lost more than "
                   f"0.05 to disabling the inductive loss ({off:.4f})")


def _warmstart_orderings(rows):
    variants = {"full": _select(rows, method="mcond_ss", batch_mode="graph"),
                "doscond": _select(rows, method="doscond", batch_mode="graph"),
                **{name: _select(rows, method="mcond_ss", batch_mode="graph",
                                 overrides=flags)
                   for name, flags in WARM_STARTS.items()}}
    for budget in set.intersection(*map(set, variants.values())):
        accuracy_of = {name: found[budget]["accuracy"]
                       for name, found in variants.items()}
        where = f"warm-start ablation (budget {budget})"
        for name in ("random_map_init", "no_adj_pretrain"):
            yield (accuracy_of["full"] >= accuracy_of[name] - 0.05,
                   f"{where}: full {accuracy_of['full']:.4f} lost more than "
                   f"0.05 to {name} {accuracy_of[name]:.4f}")
        yield (bool(np.all(np.isfinite(list(accuracy_of.values())))),
               f"{where}: a non-finite accuracy {accuracy_of}")


_ORDERINGS = (_table2_orderings, _fig34_orderings, _table3_orderings,
              _table4_orderings, _table5_orderings, _fig5_orderings,
              _fig6_orderings, _fig7_orderings, _warmstart_orderings)
