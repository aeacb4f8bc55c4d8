"""Project-native static analysis (``repro check``).

See :mod:`repro.analysis.core` for the framework and ``docs/analysis.md``
for the checker catalog and annotation syntax.
"""

from repro.analysis.core import (
    ANALYSIS_REPORT_SCHEMA_VERSION,
    CHECKERS,
    AnalysisContext,
    AnalysisError,
    CheckerEntry,
    SourceFile,
    Violation,
    build_report,
    check_analysis_report_schema,
    register_checker,
    render_text_report,
    run_checkers,
)

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
    "register_checker",
    "render_text_report",
    "run_checkers",
]
