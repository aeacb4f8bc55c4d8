"""The library's public surface: what ``src/repro`` imports, and what left it.

``src/repro`` may import only the standard library, itself and the
packages ``pyproject.toml`` declares, so an installed copy imports
without anything else on the path.  Public names that nothing but their
own tests called are gone: the networkx converters, Correct & Smooth,
the seeding helpers, the unused corners of ``repro.nn``,
``repro.tensor``, the graph containers and the experiment settings, and
the on-disk formats beside the deployment bundle.  Condensation trains
the deployed ``SGC`` as its relay, so its own relay class is gone too.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies``.  Python 3.10 has no
    ``tomllib``, so the one list is read with a regex."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml declares no [project] dependencies"
    return {name.lower().replace("-", "_")
            for name in re.findall(r"[\"']([A-Za-z0-9_.\-]+)", match.group(1))}


def _top_level_imports(path: Path):
    """``(line, top-level module)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_declared_dependencies():
    allowed = ({"repro"} | set(sys.stdlib_module_names)
               | _declared_dependencies())
    undeclared = [
        f"{path.relative_to(SRC.parent)}:{line}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for line, module in _top_level_imports(path)
        if module not in allowed
    ]
    assert undeclared == []


@pytest.mark.parametrize("module", [
    "repro.graph.interop", "repro.propagation.smooth", "repro.utils.seeding"])
def test_removed_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


#: module -> names (``Class.attribute`` for a method) no longer defined
#: there, in the package that exported them and the module that held them.
GONE = {
    "repro.nn": ["SGD", "MLPBlock", "macro_f1", "confusion_matrix",
                 "glorot_normal", "Module.num_parameters",
                 "Module.save_weights", "Module.load_weights"],
    "repro.nn.optim": ["SGD"],
    "repro.nn.layers": ["MLPBlock"],
    "repro.nn.metrics": ["macro_f1", "confusion_matrix"],
    "repro.nn.init": ["glorot_normal"],
    "repro.tensor": ["tanh", "clip_min_const", "nll_loss", "mse_loss",
                     "frobenius_norm", "Tensor.numpy"],
    "repro.tensor.tensor": ["tanh", "clip_min_const", "Tensor.numpy"],
    "repro.tensor.functional": ["nll_loss", "mse_loss", "frobenius_norm"],
    "repro.graph": ["Graph.num_undirected_edges", "Graph.class_counts",
                    "AttachedGraph.inductive_indices", "Graph.save",
                    "Graph.load"],
    "repro.graph.graph": ["Graph.save", "Graph.load"],
    "repro.condense": ["CondensedGraph.to_graph", "CondensedGraph.save",
                       "CondensedGraph.load", "MappingMatrix.sparsity",
                       "SgcRelay", "ReducerEntry.keeps_result"],
    "repro.condense.base": ["CondensedGraph.save", "CondensedGraph.load"],
    "repro.condense.mapping": ["MappingMatrix.sparsity"],
    "repro.condense.gcond": ["SgcRelay"],
    "repro.telemetry": ["Counter.total"],
    "repro.telemetry.metrics": ["Counter.total"],
    "repro.analysis": ["AnalysisContext.file"],
    "repro.analysis.core": ["AnalysisContext.file"],
    "repro.experiments": ["method_names"],
    "repro.experiments.settings": ["method_names"],
    "repro.inference": ["InductiveServer.run", "InductiveServer.prepared"],
    "repro.inference.engine": ["InductiveServer.run",
                               "InductiveServer.prepared"],
    "repro.propagation": ["smooth_predictions", "correct_and_smooth"],
    "repro.utils": ["seed_everything", "spawn_rngs"],
    "repro.api": ["open_stream", "DeploymentBundle.operator"],
    "repro.serving": ["ReplicaPool"],
    "repro.serving.fleet": ["ReplicaPool"],
    "repro.serving.queue": ["OVERFLOW_POLICIES"],
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in GONE.items() for name in names],
    ids=lambda value: value)
def test_removed_names_are_gone(module, name):
    owner = importlib.import_module(module)
    *path, attribute = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attribute)
    assert name not in getattr(importlib.import_module(module), "__all__", ())


@pytest.mark.parametrize("name", ["matching_losses", "structure_losses"])
def test_removed_result_fields_are_gone(name):
    # a default_factory field is no class attribute, so hasattr misses it
    from repro.condense import MCondResult
    assert name not in {f.name for f in dataclasses.fields(MCondResult)}


def test_gcond_reduce_is_the_only_algorithm_1_loop():
    from repro.condense import DosCondReducer, GCondReducer, MCondReducer
    assert "reduce" in vars(GCondReducer)
    for subclass in (MCondReducer, DosCondReducer):
        assert "reduce" not in vars(subclass)
    assert not hasattr(GCondReducer, "_final_adjacency")
