"""Registry-drift checker.

The condensation methods, models, datasets and checkers are all wired
through ``repro.registry.Registry`` instances and surfaced by ``repro
list``.  Two kinds of drift creep in as registries grow:

**REG001** — a registration without a usable description.  For
registrars that take a ``description=`` keyword it must be present and
(when a literal) non-empty; registrars without that keyword (e.g.
``@register_model``) document through the decorated object's docstring,
which must therefore exist.

**REG002** — a registry that ``repro list`` cannot reach: its global
name is never referenced by ``repro/cli.py``, so its entries are
invisible to the discovery surface the docs point users at.

Registrars are discovered structurally — any ``register_*`` function
whose body calls ``<GLOBAL>.register(...)`` — so new registries are
covered the day they are written.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.core import (
    AnalysisContext,
    Violation,
    register_checker,
)


@dataclass(frozen=True)
class Registrar:
    name: str
    registry: str  # global the registrar writes into
    takes_description: bool


def _find_registries(context: AnalysisContext) -> dict:
    """registry global name -> defining SourceFile."""
    registries = {}
    for source in context.files:
        for node in source.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets
                           if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    targets = [node.target]
                value = node.value
            else:
                continue
            if not targets or not isinstance(value, ast.Call):
                continue
            func = value.func
            if isinstance(func, ast.Subscript):
                func = func.value
            if isinstance(func, ast.Name) and func.id == "Registry":
                for target in targets:
                    registries[target.id] = source
    return registries


def _find_registrars(context: AnalysisContext,
                     registries: dict) -> dict:
    """registrar function name -> Registrar."""
    registrars = {}
    for source in context.files:
        for node in ast.walk(source.tree):
            if (not isinstance(node, ast.FunctionDef)
                    or not node.name.startswith("register_")):
                continue
            registry = None
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "register"
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in registries):
                    registry = call.func.value.id
            if registry is None:
                continue
            params = {arg.arg for arg in (node.args.args
                                          + node.args.kwonlyargs)}
            registrars[node.name] = Registrar(
                name=node.name, registry=registry,
                takes_description="description" in params)
    return registrars


def _decorator_call(decorator) -> ast.Call | None:
    return decorator if isinstance(decorator, ast.Call) else None


def _callable_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _description_of(call: ast.Call):
    """(present, literal_value_or_None) for the description keyword."""
    for keyword in call.keywords:
        if keyword.arg == "description":
            if isinstance(keyword.value, ast.Constant):
                return True, keyword.value.value
            return True, None  # an expression; trust it at runtime
    return False, None


def _check_usages(context: AnalysisContext, registrars: dict) -> list:
    violations = []
    for source in context.files:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            for decorator in node.decorator_list:
                call = _decorator_call(decorator)
                if call is None:
                    continue
                registrar = registrars.get(_callable_name(call.func))
                if registrar is None:
                    continue
                if source.suppressed(call.lineno, "registries"):
                    continue
                if registrar.takes_description:
                    present, literal = _description_of(call)
                    if present and (literal is None or str(literal).strip()):
                        continue
                    what = ("an empty description" if present
                            else "no description")
                    violations.append(Violation(
                        checker="registries", code="REG001",
                        path=source.relpath, line=call.lineno,
                        message=(f"@{registrar.name}(...) on {node.name} "
                                 f"carries {what}; 'repro list' would "
                                 "show a blank entry")))
                elif not ast.get_docstring(node):
                    violations.append(Violation(
                        checker="registries", code="REG001",
                        path=source.relpath, line=call.lineno,
                        message=(f"@{registrar.name}(...) on {node.name}: "
                                 "the registrar has no description= "
                                 "keyword, so the decorated object needs "
                                 "a docstring for 'repro list'")))
    return violations


def _check_reachability(context: AnalysisContext, registries: dict,
                        registrars: dict) -> list:
    cli = context.file("src/repro/cli.py")
    if cli is None:  # fixture trees have no CLI; nothing to reach
        return []
    used = {name for name in registries
            if re.search(rf"\b{re.escape(name)}\b", cli.text)}
    violations = []
    wired = {registrar.registry for registrar in registrars.values()}
    for name in sorted(wired - used):
        source = registries[name]
        line = 1
        for node in source.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                target = (node.targets[0] if isinstance(node, ast.Assign)
                          else node.target)
                if isinstance(target, ast.Name) and target.id == name:
                    line = node.lineno
                    break
        if source.suppressed(line, "registries"):
            continue
        violations.append(Violation(
            checker="registries", code="REG002",
            path=source.relpath, line=line,
            message=(f"registry {name} is never referenced from "
                     "repro/cli.py, so its entries are unreachable "
                     "from 'repro list'")))
    return violations


@register_checker(
    "registries",
    description=("every @register_* entry has a description (or "
                 "docstring) and its registry is reachable from "
                 "'repro list'"))
def check_registries(context: AnalysisContext) -> list:
    registries = _find_registries(context)
    registrars = _find_registrars(context, registries)
    violations = _check_usages(context, registrars)
    violations.extend(
        _check_reachability(context, registries, registrars))
    return violations
