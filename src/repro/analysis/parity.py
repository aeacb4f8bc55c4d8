"""Parity/dtype-discipline checker.

The serving stack's headline guarantee is bitwise parity between every
serving tier and direct in-process serving, and every tier computes in
float64 (numeric precision is a storage format of the saved artifact,
narrowed and widened in :mod:`repro.api`).  Two rules:

**PAR001** — in the parity-critical modules (``serving/prepared.py``,
``graph/stream.py``, ``serving/protocol.py``), any *literal* narrowing
dtype (``np.float32``/``float16``/``int8``/``int16``, as an attribute
or a string, in ``.astype(...)`` or a ``dtype=`` keyword) is flagged
(annotate with ``# repro-check: parity <reason>`` if one is ever
needed).  The checker only hunts hard-coded narrowing; the wire
protocol's declared dtype table is data, not a cast.

**PAR002** — ``time.time()`` anywhere under ``serving/`` or
``telemetry/``: wall-clock time can step backwards under NTP and has
coarse resolution, so every latency measurement must use
``time.perf_counter()`` (``time.time()`` is fine for *timestamps*, but
none of the latency-path modules need one; annotate with
``# repro-check: parity <reason>`` if one ever does).
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    AnalysisContext,
    SourceFile,
    Violation,
    register_checker,
)

PARITY_MODULES = (
    "src/repro/serving/prepared.py",
    "src/repro/graph/stream.py",
    "src/repro/serving/protocol.py",
)

LATENCY_PREFIXES = ("src/repro/serving/", "src/repro/telemetry/")

NARROW_DTYPES = frozenset({"float32", "float16", "int8", "int16"})


def _narrow_literal(node) -> str | None:
    """'float32' if the node is a literal narrowing dtype, else None."""
    if isinstance(node, ast.Attribute) and node.attr in NARROW_DTYPES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in NARROW_DTYPES:
        return node.id
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in NARROW_DTYPES):
        return node.value
    return None


def _check_dtypes(source: SourceFile) -> list:
    violations = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        found: str | None = None
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("astype", "asarray", "array",
                                       "zeros", "empty", "full", "ones")):
            for arg in node.args:
                found = found or _narrow_literal(arg)
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                found = found or _narrow_literal(keyword.value)
        if found is None:
            continue
        if source.suppressed(node.lineno, "parity"):
            continue
        violations.append(Violation(
            checker="parity", code="PAR001",
            path=source.relpath, line=node.lineno,
            message=(f"literal dtype narrowing to {found} in a parity "
                     "module; serving computes in float64 (narrow "
                     "artifacts at save time in repro.api)")))
    return violations


def _check_clocks(source: SourceFile) -> list:
    violations = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_time = (isinstance(func, ast.Attribute) and func.attr == "time"
                   and isinstance(func.value, ast.Name)
                   and func.value.id == "time")
        if not is_time:
            continue
        if source.suppressed(node.lineno, "parity"):
            continue
        violations.append(Violation(
            checker="parity", code="PAR002",
            path=source.relpath, line=node.lineno,
            message=("time.time() in a latency path; use "
                     "time.perf_counter() (monotonic, high-resolution)")))
    return violations


@register_checker(
    "parity",
    description=("no literal dtype narrowing in parity modules; no "
                 "time.time() in latency paths"))
def check_parity(context: AnalysisContext) -> list:
    violations = []
    for source in context.files:
        if source.relpath in PARITY_MODULES:
            violations.extend(_check_dtypes(source))
        if source.relpath.startswith(LATENCY_PREFIXES):
            violations.extend(_check_clocks(source))
    return violations
