"""Project-native static analysis (``repro check``).

See :mod:`repro.analysis.core` for the framework and ``docs/analysis.md``
for the checker catalog and annotation syntax.  :data:`CHECKERS` is the
table of every checker by name.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import (
    ANALYSIS_REPORT_SCHEMA_VERSION,
    AnalysisContext,
    AnalysisError,
    CheckerEntry,
    SourceFile,
    Violation,
    check_analysis_report_schema,
    render_text_report,
)
from repro.analysis.docs import check_docs
from repro.analysis.errors_check import check_errors
from repro.analysis.locks import check_locks
from repro.analysis.naming import check_naming
from repro.analysis.parity import check_parity
from repro.errors import RegistryError

#: Every checker by name, in the order a run reports them.
CHECKERS = {entry.name: entry for entry in (
    CheckerEntry("docs", check_docs,
                 "markdown links/anchors resolve; documented 'repro' "
                 "snippets match the live CLI parser"),
    CheckerEntry("errors", check_errors,
                 "every raise constructs a ReproError subclass or "
                 "re-raises; broad excepts re-raise or carry a reason"),
    CheckerEntry("locks", check_locks,
                 "guarded attributes only mutated under their owning "
                 "lock; no cross-class lock-acquisition cycles"),
    CheckerEntry("naming", check_naming,
                 "metric families match repro_<component>_<what>"
                 "[_total|_seconds] with a known component"),
    CheckerEntry("parity", check_parity,
                 "no literal dtype narrowing in parity modules; no "
                 "time.time() in latency paths"),
)}


def run_checkers(root: str | Path, *, only: list[str] | None = None,
                 disable: list[str] | None = None,
                 ) -> tuple[list[Violation], dict, AnalysisContext]:
    """Run the selected checkers; returns ``(violations, per_checker, ctx)``.

    ``per_checker`` maps checker name → finding count, in table order.
    """
    for name in [*(only or ()), *(disable or ())]:
        if name not in CHECKERS:
            raise RegistryError(
                f"unknown static-analysis checker {name!r}; "
                f"available: {', '.join(CHECKERS)}")
    entries = [entry for name, entry in CHECKERS.items()
               if (not only or name in only) and name not in (disable or ())]
    context = AnalysisContext.collect(root)
    violations: list[Violation] = []
    per_checker: dict[str, int] = {}
    for entry in entries:
        found = entry.run(context)
        per_checker[entry.name] = len(found)
        violations.extend(found)
    violations.sort(key=lambda v: (v.path, v.line, v.checker, v.code))
    return violations, per_checker, context


def build_report(violations: list[Violation], per_checker: dict,
                 context: AnalysisContext) -> dict:
    """The JSON report ``repro check --format json`` emits (CI artifact)."""
    return {
        "kind": "analysis-report",
        "schema_version": ANALYSIS_REPORT_SCHEMA_VERSION,
        "files_scanned": len(context.files),
        "checkers": {name: {
            "description": CHECKERS[name].description,
            "violations": count,
        } for name, count in per_checker.items()},
        "violations": [v.as_dict() for v in violations],
        "clean": not violations,
    }


__all__ = [
    "ANALYSIS_REPORT_SCHEMA_VERSION",
    "CHECKERS",
    "AnalysisContext",
    "AnalysisError",
    "CheckerEntry",
    "SourceFile",
    "Violation",
    "build_report",
    "check_analysis_report_schema",
    "render_text_report",
    "run_checkers",
]
