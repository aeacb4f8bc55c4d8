"""The closed sets are plain tables that ``repro list`` prints in full.

Every reducer, model, dataset, serving task and partitioner is a key
of one module-level dict.  Each key must show in its ``repro list``
section, and every entry that carries a description must carry a
non-empty one that ``repro list`` prints verbatim.  The plugin registry
these tables replaced is gone, and so are its parallel paths.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.condense import REDUCERS
from repro.graph.datasets import DATASET_SPECS
from repro.graph.partition import PARTITIONERS
from repro.nn.models import MODELS
from repro.serving.embeddings import TASKS

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))

#: ``repro list`` heading -> (table, the entry's description or ``None``
#: for a table ``repro list`` prints as one comma-separated line).
TABLES = {
    "reduction methods": (REDUCERS, lambda entry: entry.description),
    "graph partitioners": (PARTITIONERS, lambda entry: entry[1]),
    "model architectures": (MODELS, None),
    "datasets": (DATASET_SPECS, None),
    "serving tasks": (TASKS, lambda entry: entry[1]),
}


def _listed_sections(capsys) -> dict[str, list[str]]:
    """``repro list`` output: heading (before its ``(...)`` hint) -> the
    stripped lines under it."""
    assert main(["list"]) == 0
    sections: dict[str, list[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line and not line.startswith(" "):
            current = sections.setdefault(line.split(" (")[0].rstrip(":"), [])
        elif line.strip():
            current.append(line.strip())
    return sections


@pytest.mark.parametrize("heading", list(TABLES))
def test_every_table_entry_is_described_and_listed(heading, capsys):
    table, describe = TABLES[heading]
    lines = _listed_sections(capsys)[heading]
    if describe is None:
        assert lines == [", ".join(sorted(table))]
        return
    printed = {}
    for line in lines:
        name, _, description = line.partition(" ")
        printed[name] = description.strip()
    expected = {name: describe(entry) for name, entry in table.items()}
    assert all(isinstance(d, str) and d.strip() for d in expected.values()), (
        f"{heading}: an entry has no description")
    assert printed == expected


@pytest.mark.parametrize("name", [
    "repro.registry", "register_checker", "MODEL_REGISTRY", "make_coreset"])
def test_registry_names_are_gone(name):
    """The plugin registry and its parallel paths left the code: the
    module, the checker decorator, the legacy model alias and the
    coreset-only factory."""
    if name == "repro.registry":
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
        assert not hasattr(repro, "registry")
        return
    for module in ("repro.nn", "repro.nn.models", "repro.condense",
                   "repro.condense.coreset"):
        assert not hasattr(importlib.import_module(module), name), module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    """Every example loads against the current API; its ``main`` only
    runs under ``__main__``."""
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
