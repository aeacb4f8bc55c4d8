"""Telemetry metric-name checker.

``telemetry/metrics.py`` documents the naming convention every metric
family must follow::

    repro_<component>_<what>[_total|_seconds]

with ``component`` one of ``gateway``, ``fleet`` — plus the shared
cross-layer ``stage`` family.  This checker finds every
``registry.counter(...)``/``.gauge(...)``/``.histogram(...)`` call with
a literal name and enforces:

- **NAM001** name shape: ``repro_`` prefix, lowercase
  ``[a-z0-9_]`` words;
- **NAM002** known component as the second word;
- **NAM003** type suffix: counters end ``_total``, histograms end
  ``_seconds``, and gauges must NOT end in a reserved suffix
  (``_total``, ``_seconds``, ``_count``, ``_sum``, ``_bucket`` — the
  latter three collide with histogram exposition series).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import (
    AnalysisContext,
    Violation,
)

NAME_RE = re.compile(r"^repro_[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")

COMPONENTS = frozenset({"gateway", "fleet", "stage"})

RESERVED_GAUGE_SUFFIXES = ("_total", "_seconds", "_count", "_sum",
                           "_bucket")

FAMILY_METHODS = ("counter", "gauge", "histogram")


def _literal_name(call: ast.Call) -> str | None:
    if (call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)):
        return call.args[0].value
    for keyword in call.keywords:
        if (keyword.arg == "name"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)):
            return keyword.value.value
    return None


def _check_name(source, line: int, kind: str, name: str) -> list:
    if source.suppressed(line, "naming"):
        return []

    def violation(code: str, message: str) -> Violation:
        return Violation(checker="naming", code=code,
                         path=source.relpath, line=line,
                         message=message)

    if not NAME_RE.match(name):
        return [violation(
            "NAM001",
            f"metric {name!r} does not match "
            "repro_<component>_<what>[_total|_seconds]")]
    problems = []
    component = name.split("_")[1]
    if component not in COMPONENTS:
        problems.append(violation(
            "NAM002",
            f"metric {name!r} uses unknown component {component!r} "
            f"(known: {', '.join(sorted(COMPONENTS))})"))
    if kind == "counter" and not name.endswith("_total"):
        problems.append(violation(
            "NAM003", f"counter {name!r} must end with _total"))
    elif kind == "histogram" and not name.endswith("_seconds"):
        problems.append(violation(
            "NAM003", f"histogram {name!r} must end with _seconds"))
    elif kind == "gauge" and name.endswith(RESERVED_GAUGE_SUFFIXES):
        problems.append(violation(
            "NAM003",
            f"gauge {name!r} ends with a reserved suffix; _total/"
            "_seconds/_count/_sum/_bucket belong to counters and "
            "histogram exposition series"))
    return problems


def check_naming(context: AnalysisContext) -> list:
    violations = []
    for source in context.files:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr not in FAMILY_METHODS):
                continue
            name = _literal_name(node)
            if name is None:
                continue
            violations.extend(
                _check_name(source, node.lineno, func.attr, name))
    return violations
