"""The experiment grid: presets, seed aggregation, shared condensations,
operators, and the paper-ordering checks."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.condense import MCondReducer
from repro.errors import InferenceError, ServingError
from repro.experiments import (
    Cell,
    ExperimentContext,
    PRESETS,
    calibrate_lp_ep,
    diagonal_dominance,
    paper_orderings,
    prepare_dataset,
    run_grid,
)
from repro.experiments import grid
from repro.graph import symmetric_normalize
from repro.inference import InductiveServer
from repro.nn.metrics import accuracy
from repro.propagation import softmax_rows
from repro.serving import PreparedDeployment
from repro.tensor import Tensor, no_grad
from repro.tensor.functional import one_hot

from test_experiments import FAST

BUDGETS = (9, 15)
SMALL, LARGE = BUDGETS
MODES = ("graph", "node")
ARCHS = ("gcn", "graphsage", "appnp", "cheby")
TABLE2 = ("whole", "random", "degree", "herding", "kcenter", "vng",
          "mcond_os", "gcond", "mcond_so", "mcond_ss")
FIG34 = ("random", "degree", "herding", "kcenter", "vng", "mcond_ss")
ABLATION_FLAGS = [(s, i) for s in (False, True) for i in (False, True)]
DELTAS = (0.0, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.05, 0.1, 0.2, 0.4)


def _key(method, budget, batch_mode, model="sgc", overrides=None, delta=None):
    budget = None if method == "whole" else budget
    return (method, budget, batch_mode, model,
            frozenset((overrides or {}).items()), delta)


# What each deleted table*/fig* module (or warm-start script) measured,
# written out from those modules' loops.  Their per-budget Whole rows
# were one measurement repeated, so Whole appears once per batch mode.
EXPECTED = {
    "table2": {_key(m, b, mode) for mode in MODES for b in BUDGETS
               for m in TABLE2},
    "table3": {_key(m, LARGE, mode) for mode in MODES
               for m in ("mcond_so", "mcond_ss")},
    "table4": {_key(m, LARGE, mode, model=arch) for arch in ARCHS
               for mode in MODES for m in ("mcond_so", "mcond_ss")},
    "table5": {_key("mcond_ss", LARGE, mode,
                    overrides={"use_structure_loss": s,
                               "use_inductive_loss": i})
               for s, i in ABLATION_FLAGS for mode in MODES},
    "fig3": ({_key(m, b, "graph") for b in BUDGETS for m in FIG34}
             | {_key("whole", None, "graph")}),
    "fig4": ({_key(m, b, "node") for b in BUDGETS for m in FIG34}
             | {_key("whole", None, "node")}),
    "fig5": {_key("mcond_ss", SMALL, "node",
                  overrides={"class_aware_init": flag})
             for flag in (True, False)},
    "fig6": {_key("mcond_os", LARGE, "node", delta=d) for d in DELTAS},
    # one axis at a time around (0.1, 100); that point sits on both axes
    "fig7": {_key("mcond_os", LARGE, "node",
                  overrides={"lambda_structure": lam, "beta_inductive": beta})
             for lam, beta in ([(lam, 100.0) for lam in
                                (0.0, 0.01, 0.1, 1.0, 10.0)]
                               + [(0.1, beta) for beta in
                                  (0.0, 1.0, 10.0, 100.0, 1000.0)])},
    "warmstart": ({_key("mcond_ss", LARGE, "graph", overrides=o)
                   for o in ({}, {"init_propagated": False},
                             {"adjacency_pretrain_steps": 0},
                             {"class_aware_init": False})}
                  | {_key("doscond", LARGE, "graph")}),
}


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(prepare_dataset("tiny-sim", seed=1), FAST)


@pytest.fixture(scope="module")
def preset_rows(context):
    return {name: run_grid(context, cells(BUDGETS))
            for name, cells in PRESETS.items()}


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_preset_yields_its_deleted_module_rows(preset_rows, preset):
    rows = preset_rows[preset]
    keys = [_key(r["method"], r["budget"], r["batch_mode"], r["model"],
                 r["overrides"], r["delta"]) for r in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == EXPECTED[preset]
    for row in rows:
        assert row["dataset"] == "tiny-sim"
        assert (row["operator"], row["request_size"]) == ("exact", None)
        if not np.isnan(row["accuracy"]):
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["time_ms"] > 0 and row["memory_mb"] > 0
        if row["method"] == "whole":
            assert row["speedup_vs_whole"] == 1.0
    for row in rows:  # Table III calibrates SGC trained on MCond's graph
        calibrated = (row["method"] in ("mcond_so", "mcond_ss")
                      and row["model"] == "sgc")
        assert (row["lp"] is not None) == calibrated
        if calibrated:
            assert 0.0 <= row["lp"] <= 1.0 and 0.0 <= row["ep"] <= 1.0
            assert row["prop_time_ms"] > 0
    if preset == "fig5":
        for row in rows:
            assert 0.0 <= row["diagonal_dominance"] <= 1.0
            assert row["init_diagonal_dominance"] > 0.5
            assert row["loss_first"] > 0
    if preset == "fig6":
        sparsity = [r["sparsity"] for r in sorted(rows, key=lambda r: r["delta"])]
        assert all(b >= a - 1e-12 for a, b in zip(sparsity, sparsity[1:]))


def test_seeds_aggregate_into_mean_and_std():
    context = ExperimentContext(prepare_dataset("tiny-sim", seed=1),
                                replace(FAST, seeds=(0, 1)))
    cell = Cell("random", 9, batch_mode="node")
    [row] = run_grid(context, [cell, cell])  # a repeated cell runs once
    accuracies = [context.run_method(replace(cell, seed=seed)).accuracy
                  for seed in (0, 1)]
    assert accuracies[0] != accuracies[1]
    assert row["accuracy"] == pytest.approx(np.mean(accuracies))
    assert row["std"] == pytest.approx(np.std(accuracies))


def test_table2_mcond_cells_and_table5_full_share_one_condensation(monkeypatch):
    runs = []
    original = MCondReducer.reduce

    def counting(self, split, budget):
        runs.append(budget)
        return original(self, split, budget)

    monkeypatch.setattr(MCondReducer, "reduce", counting)
    context = ExperimentContext(prepare_dataset("tiny-sim", seed=1), FAST)
    cells = [cell for cell in PRESETS["table2"]((LARGE,))
             if cell.method.startswith("mcond")]
    rows = run_grid(context, cells + PRESETS["table5"]((LARGE,)))
    assert len(runs) == 1 + 3  # table2's mcond_* and "full"; 3 ablations
    by_key = {(r["method"], r["batch_mode"], tuple(r["overrides"])): r
              for r in rows}
    for mode in MODES:
        full = by_key[("mcond_ss", mode,
                       ("use_inductive_loss", "use_structure_loss"))]
        assert full["accuracy"] == by_key[("mcond_ss", mode, ())]["accuracy"]


def test_frozen_operator_serves_sgc_and_rejects_other_models(context):
    rows = run_grid(context, [
        Cell("mcond_ss", 9, batch_mode="node", request_size=4,
             operator=operator) for operator in ("exact", "frozen")])
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["lp"] is None  # Table III calibrates full exact batches
    with pytest.raises(ServingError, match="SGC"):
        run_grid(context, [Cell("mcond_ss", 9, model="gcn", operator="frozen",
                                batch_mode="node")])


def _reference_calibration(model, deployment, original, served, batch,
                           batch_mode):
    """Table III from the uncached oracle: attach, ``symmetric_normalize``,
    the full forward, then the LP and EP recurrences written out with the
    calibration's ``alpha = 0.8``, 20 iterations and ``gamma = 0.4``.
    Returns ``(operator, inductive logits, LP scores, EP scores)``."""
    alpha, gamma = 0.8, 0.4
    attached = InductiveServer(model, deployment, original,
                               served).attach(batch, batch_mode)
    operator = symmetric_normalize(attached.adjacency)
    with no_grad():
        logits = model(operator, Tensor(attached.features)).data
    size = attached.base_size
    labels = original.labels if deployment == "original" else served.labels
    targets = one_hot(labels, logits.shape[1])

    def propagate(initial, clamp):
        scores, anchor = initial.copy(), initial.copy()
        for _ in range(20):
            scores = alpha * (operator @ scores) + (1.0 - alpha) * anchor
            if clamp:
                scores[:size] = targets
        return scores[size:]

    prior = np.vstack([targets, softmax_rows(logits[size:])])
    errors = np.zeros_like(prior)
    errors[:size] = targets - softmax_rows(logits[:size])
    return (operator, logits[size:], propagate(prior, clamp=True),
            softmax_rows(logits[size:]) + gamma * propagate(errors,
                                                             clamp=False))


@pytest.mark.parametrize("batch_mode", MODES)
@pytest.mark.parametrize("method", ("mcond_so", "mcond_ss"))
def test_calibration_matches_the_oracle_attach_bitwise(context, monkeypatch,
                                                       method, batch_mode):
    """``calibrate_lp_ep`` attaches once through the served operator and
    hands that one operator to LP and EP; every number is the oracle's."""
    seen = {}

    def spy(name):
        real = getattr(grid, name)

        def wrapped(operator, *args, **kwargs):
            seen[name] = (operator, args, real(operator, *args, **kwargs))
            return seen[name][2]
        return wrapped

    for name in ("label_propagation", "error_propagation"):
        monkeypatch.setattr(grid, name, spy(name))
    model, deployment, served = context.assemble(
        Cell(method, LARGE, batch_mode=batch_mode))
    batch, original = context.prepared.test_batch, context.prepared.original
    row = calibrate_lp_ep(PreparedDeployment(model, deployment, original,
                                             served), batch, batch_mode)
    operator, logits, lp, ep = _reference_calibration(
        model, deployment, original, served, batch, batch_mode)

    ours, _, lp_ours = seen["label_propagation"]
    assert seen["error_propagation"][0] is ours
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, part), getattr(operator, part))
    assert ours.data.tobytes() == operator.data.tobytes()
    assert np.array_equal(seen["error_propagation"][1][2], logits)
    assert np.array_equal(lp_ours, lp)
    assert np.array_equal(seen["error_propagation"][2], ep)
    assert row["vanilla"] == accuracy(logits, batch.labels)
    assert row["lp"] == accuracy(lp, batch.labels)
    assert row["ep"] == accuracy(ep, batch.labels)
    assert row["prop_time_ms"] > 0


def test_calibration_rejects_an_unknown_batch_mode(context):
    model, deployment, served = context.assemble(Cell("mcond_ss", LARGE))
    with pytest.raises(InferenceError, match="batch_mode"):
        calibrate_lp_ep(PreparedDeployment(model, deployment,
                                           context.prepared.original, served),
                        context.prepared.test_batch, "nodes")


def test_paper_orderings_report_a_hand_flipped_row(preset_rows):
    rows = preset_rows["table5"]
    before = set(paper_orderings(rows))
    flipped = copy.deepcopy(rows)
    full = next(r for r in flipped if r["batch_mode"] == "node"
                and all(r["overrides"].values()))
    plain = next(r for r in flipped if r["batch_mode"] == "node"
                 and not any(r["overrides"].values()))
    plain["accuracy"] = full["accuracy"] + 0.5
    new = set(paper_orderings(flipped)) - before
    assert len(new) == 1
    assert new.pop().startswith("tiny-sim Table V (node, budget 15)")


def test_diagonal_dominance_identity():
    assert diagonal_dominance(np.eye(3)) == 1.0
    assert diagonal_dominance(np.zeros((2, 2))) == 0.0
