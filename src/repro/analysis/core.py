"""Framework for the project-native static-analysis pass (``repro check``).

Generic linters cannot see the conventions the serving stack's
correctness rests on — which attributes a ``_lock`` guards, that every
intentional ``raise`` derives from :class:`~repro.errors.ReproError`,
that parity-critical modules must not narrow dtypes, that metric names
follow ``repro_<component>_<what>[_total|_seconds]``.  This package
machine-checks them: each *checker* is a small AST pass, listed in the
plain table :data:`repro.analysis.CHECKERS`, that receives one shared
:class:`AnalysisContext` and returns :class:`Violation`\\ s.

Suppressions are explicit and carry a reason: an inline
``# repro-check: <checker> <reason>`` comment on the offending line
waives that line for that checker.

The CLI surface is ``repro check`` (text or JSON report, per-checker
enable/disable); CI runs it as a hard gate.  See ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ReproError

__all__ = [
    "AnalysisError",
    "Violation",
    "SourceFile",
    "AnalysisContext",
    "CheckerEntry",
    "render_text_report",
    "check_analysis_report_schema",
    "ANALYSIS_REPORT_SCHEMA_VERSION",
]

ANALYSIS_REPORT_SCHEMA_VERSION = 2

#: Inline-suppression marker: ``# repro-check: <checker> <reason>``.
SUPPRESS_MARKER = "repro-check:"


class AnalysisError(ReproError, ValueError):
    """The static-analysis pass was misconfigured or an input is invalid."""


@dataclass(frozen=True)
class Violation:
    """One finding of one checker, anchored to a source line."""

    checker: str
    code: str  # stable short id, e.g. "LOCK001"
    path: str  # repo-relative posix path
    line: int
    message: str

    def as_dict(self) -> dict:
        return {"checker": self.checker, "code": self.code,
                "path": self.path, "line": self.line,
                "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.code} "
                f"[{self.checker}] {self.message}")


class SourceFile:
    """One parsed Python source: AST plus the comments AST throws away."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.text = path.read_text()
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {self.relpath}: {exc}") from exc
        self.comments: dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:
            pass  # comments stay best-effort; the AST parsed fine

    def comment_on(self, line: int) -> str:
        return self.comments.get(line, "")

    def suppressed(self, line: int, checker: str) -> bool:
        """True when ``# repro-check: <checker> <reason>`` covers ``line``.

        The marker may sit on the flagged line itself or on the line
        directly above it (for statements too long to share a line).
        The reason is mandatory: a bare marker does not suppress, the
        same way a broad except needs a justification, not just a tag.
        """
        for candidate in (line, line - 1):
            comment = self.comments.get(candidate, "")
            marker = comment.find(SUPPRESS_MARKER)
            if marker < 0:
                continue
            rest = comment[marker + len(SUPPRESS_MARKER):].strip()
            words = rest.split(None, 1)
            if (words and words[0] == checker and len(words) > 1
                    and words[1].strip()):
                return True
        return False


@dataclass
class AnalysisContext:
    """Everything a checker may need, computed once per run."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)
    #: Names of every class deriving (transitively) from ``ReproError``.
    repro_error_names: set[str] = field(default_factory=set)

    @classmethod
    def collect(cls, root: str | Path,
                package: str = "src/repro") -> "AnalysisContext":
        root = Path(root).resolve()
        package_dir = root / package
        if not package_dir.is_dir():
            raise AnalysisError(
                f"no package directory {package!r} under {root}")
        files = [SourceFile(root, path)
                 for path in sorted(package_dir.rglob("*.py"))
                 if "__pycache__" not in path.parts]
        context = cls(root=root, files=files)
        context.repro_error_names = _collect_error_hierarchy(files)
        return context


def _collect_error_hierarchy(files: list[SourceFile]) -> set[str]:
    """Transitive subclasses of ``ReproError`` across the whole package.

    Bases are resolved by (last) name, which is exact for this codebase:
    error classes are always referenced by their imported name.
    """
    bases_by_class: dict[str, set[str]] = {}
    for source in files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        names.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        names.add(base.attr)
                bases_by_class.setdefault(node.name, set()).update(names)
    known = {"ReproError"}
    changed = True
    while changed:
        changed = False
        for name, bases in bases_by_class.items():
            if name not in known and bases & known:
                known.add(name)
                changed = True
    return known


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckerEntry:
    """One checker of :data:`repro.analysis.CHECKERS`:
    ``run(context) -> list[Violation]``, and the line ``repro list``
    prints."""

    name: str
    run: Callable[[AnalysisContext], list]
    description: str


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def render_text_report(report: dict) -> str:
    """Human-readable report body (one line per finding + a summary)."""
    lines = [Violation(**entry).render()
             for entry in report["violations"]]
    counts = ", ".join(f"{name}={info['violations']}"
                       for name, info in report["checkers"].items())
    status = "clean" if report["clean"] else (
        f"{len(report['violations'])} violation(s)")
    lines.append(f"repro check: {status} ({counts}; "
                 f"{report['files_scanned']} files)")
    return "\n".join(lines)


def _require_keys(mapping: dict, keys, where: str) -> None:
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise AnalysisError(f"{where} misses keys: {missing}")


def check_analysis_report_schema(result: dict) -> None:
    """Validate a ``repro check`` JSON report; ``repro check`` runs this
    on its own output before printing or writing it."""
    if not isinstance(result, dict):
        raise AnalysisError("analysis report must be a JSON object")
    _require_keys(result, ("kind", "schema_version", "files_scanned",
                           "checkers", "violations", "clean"),
                  "analysis report")
    if result["kind"] != "analysis-report":
        raise AnalysisError(
            f"analysis report kind must be 'analysis-report', "
            f"got {result['kind']!r}")
    if result["schema_version"] != ANALYSIS_REPORT_SCHEMA_VERSION:
        raise AnalysisError(
            f"analysis report schema_version must be "
            f"{ANALYSIS_REPORT_SCHEMA_VERSION}, "
            f"got {result['schema_version']!r}")
    if not isinstance(result["checkers"], dict) or not result["checkers"]:
        raise AnalysisError("analysis report 'checkers' must be a "
                            "non-empty object")
    for name, info in result["checkers"].items():
        _require_keys(info, ("description", "violations"),
                      f"analysis report checker {name!r}")
    if not isinstance(result["violations"], list):
        raise AnalysisError("analysis report 'violations' must be a list")
    for entry in result["violations"]:
        _require_keys(entry, ("checker", "code", "path", "line", "message"),
                      "analysis report violation")
    if result["clean"] != (not result["violations"]):
        raise AnalysisError(
            "analysis report 'clean' disagrees with its violation list")
