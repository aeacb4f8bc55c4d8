"""Error-discipline checker.

**ERR001** — every ``raise`` under ``src/repro`` must construct a
:class:`~repro.errors.ReproError` subclass (resolved project-wide, so
``TelemetryError`` defined in ``telemetry/metrics.py`` counts) or
re-raise.  Allowed without annotation:

- bare ``raise`` and re-raising a stored exception object
  (``raise self._error``) — the original type is preserved;
- ``NotImplementedError``, ``AssertionError``, ``SystemExit`` — these
  express contract/CLI semantics, not recoverable repro failures;
- ``KeyError``/``IndexError`` inside ``__getitem__``/``__missing__``
  and ``AttributeError`` inside ``__getattr__``-family methods, where
  the *protocol* dictates the exception type.

**ERR002** — a bare ``except:`` or broad ``except Exception`` must
either re-raise (cleanup-and-reraise: the handler body contains a bare
``raise``) or carry a justification comment — the repo's existing
``# noqa: BLE001 — <reason>`` idiom or ``# broad-except: <reason>``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    AnalysisContext,
    SourceFile,
    Violation,
)

#: Exceptions whose semantics are not "a repro operation failed".
ALWAYS_ALLOWED = frozenset({
    "NotImplementedError", "AssertionError", "SystemExit",
})

#: method name -> exception types the protocol itself mandates.
PROTOCOL_ALLOWED = {
    "__getitem__": frozenset({"KeyError", "IndexError"}),
    "__missing__": frozenset({"KeyError"}),
    "__getattr__": frozenset({"AttributeError"}),
    "__getattribute__": frozenset({"AttributeError"}),
    "__setattr__": frozenset({"AttributeError"}),
    "__delattr__": frozenset({"AttributeError"}),
}

BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _exception_name(node) -> str | None:
    """Callable name of ``raise <name>(...)``, by last path segment."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_justification(source: SourceFile, line: int) -> bool:
    comment = source.comment_on(line)
    for marker in ("noqa: BLE001", "broad-except:"):
        at = comment.find(marker)
        if at >= 0 and comment[at + len(marker):].strip(" -—:"):
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


class _Walker(ast.NodeVisitor):
    def __init__(self, source: SourceFile, error_names: set) -> None:
        self.source = source
        self.error_names = error_names
        self.function_stack: list[str] = []
        self.violations: list = []

    def _visit_function(self, node) -> None:
        self.function_stack.append(node.name)
        self.generic_visit(node)
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Raise(self, node) -> None:
        self.generic_visit(node)
        if node.exc is None:  # bare re-raise
            return
        if not isinstance(node.exc, ast.Call):
            return  # re-raising a stored exception object
        name = _exception_name(node.exc.func)
        if name is None or name in self.error_names:
            return
        if name in ALWAYS_ALLOWED:
            return
        method = self.function_stack[-1] if self.function_stack else ""
        if name in PROTOCOL_ALLOWED.get(method, ()):
            return
        if self.source.suppressed(node.lineno, "errors"):
            return
        self.violations.append(Violation(
            checker="errors", code="ERR001",
            path=self.source.relpath, line=node.lineno,
            message=(f"raise {name}(...) is not a ReproError subclass; "
                     "raise a repro.errors type (or annotate "
                     "'# repro-check: errors <reason>')")))

    def visit_ExceptHandler(self, node) -> None:
        self.generic_visit(node)
        broad = node.type is None or (
            isinstance(node.type, ast.Name) and node.type.id in BROAD_TYPES)
        if not broad:
            return
        if _reraises(node) or _has_justification(self.source, node.lineno):
            return
        if self.source.suppressed(node.lineno, "errors"):
            return
        label = ("bare except:" if node.type is None
                 else f"except {node.type.id}")
        self.violations.append(Violation(
            checker="errors", code="ERR002",
            path=self.source.relpath, line=node.lineno,
            message=(f"{label} swallows everything without re-raising; "
                     "narrow the type or justify with "
                     "'# noqa: BLE001 — <reason>'")))


def check_errors(context: AnalysisContext) -> list:
    violations = []
    for source in context.files:
        walker = _Walker(source, context.repro_error_names)
        walker.visit(source.tree)
        violations.extend(walker.violations)
    return violations
