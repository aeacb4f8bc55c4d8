"""Lock-discipline checker.

Two passes over every class that owns a ``threading.Lock``/``RLock``:

**LOCK001 — guarded state mutated outside the lock.**  The guarded set
of a class is the union of attributes explicitly annotated ``# guarded
by _lock`` (comment on, or immediately above, the attribute's creation)
and attributes the code itself treats as guarded — mutated at least
once inside ``with self._lock:`` in a regular method.  Every other
mutation of a guarded attribute must also hold that lock.  Exempt:
``__init__``/``__post_init__`` (no concurrent reader can exist yet) and
helper methods whose docstring declares ``caller holds`` the lock — the
repo's documented convention for lock-hoisted helpers.

**LOCK002 — cross-module lock-acquisition cycles.**  Builds the graph
"class A calls into lock-owning class B while holding A's own lock"
across the threaded serving modules (``fleet.py``, ``gateway.py``,
``runtime.py``, ``telemetry/``) and flags any cycle: two classes that
each enter the other under their own lock can deadlock.

``threading.Condition(self._lock)`` attributes are treated as aliases
of the wrapped lock; a bare ``Condition()`` owns its own lock.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.core import (
    AnalysisContext,
    SourceFile,
    Violation,
)

GUARDED_RE = re.compile(r"guarded by\s+`?`?(\w+)`?`?")
HOLDER_RE = re.compile(r"caller holds", re.IGNORECASE)

#: Methods on container attributes that mutate the container in place.
MUTATORS = frozenset({
    "append", "extend", "appendleft", "extendleft", "insert", "add",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "update", "setdefault", "sort", "reverse",
})

#: Modules whose lock interactions feed the deadlock graph (LOCK002).
DEADLOCK_SCOPE = (
    "src/repro/serving/fleet.py",
    "src/repro/serving/gateway.py",
    "src/repro/serving/runtime.py",
    "src/repro/telemetry/",
)


@dataclass
class Mutation:
    attr: str
    line: int
    held: tuple  # innermost-last stack of held lock names
    method: str


@dataclass
class LockClass:
    """Lock-relevant facts about one class definition."""

    name: str
    source: SourceFile
    locks: set = field(default_factory=set)
    aliases: dict = field(default_factory=dict)  # condition attr -> lock
    guarded: dict = field(default_factory=dict)  # attr -> lock (explicit)
    mutations: list = field(default_factory=list)
    #: attr name -> class name, for ``self.attr = SomeLockOwningClass()``
    composed: dict = field(default_factory=dict)
    #: (lock, callee attr, line) calls made while holding ``lock``
    calls_under_lock: list = field(default_factory=list)
    holder_methods: set = field(default_factory=set)


def _is_threading_call(node, names) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in names
    if isinstance(func, ast.Name):
        return func.id in names
    return False


def _self_attr(node) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _docstring(node) -> str:
    return ast.get_docstring(node) or ""


def _scan_class(source: SourceFile, node: ast.ClassDef) -> LockClass:
    info = LockClass(name=node.name, source=source)

    # Class-level dataclass fields: ``_lock: Lock = field(default_factory=
    # threading.Lock)`` declares a lock; the annotation comment (if any)
    # can declare guarded attributes the same way ``__init__`` lines do.
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        target = statement.target
        if not isinstance(target, ast.Name):
            continue
        declared_lock = False
        if isinstance(statement.value, ast.Call):
            for keyword in statement.value.keywords:
                if (keyword.arg == "default_factory"
                        and _is_not_call_but_lock(keyword.value)):
                    declared_lock = True
        if declared_lock:
            info.locks.add(target.id)
        else:
            _note_guarded(info, source, target.id, statement.lineno)

    # Instance attributes assigned in any method (locks are created in
    # __init__/__post_init__ in this codebase, but scan all methods).
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if HOLDER_RE.search(_docstring(method)):
            info.holder_methods.add(method.name)
        for statement in ast.walk(method):
            if not isinstance(statement, ast.Assign):
                continue
            for target in statement.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                value = statement.value
                if _is_threading_call(value, ("Lock", "RLock")):
                    info.locks.add(attr)
                elif _is_threading_call(value, ("Condition",)):
                    wrapped = (_self_attr(value.args[0])
                               if value.args else None)
                    if wrapped:
                        info.aliases[attr] = wrapped
                    else:
                        info.locks.add(attr)
                elif (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)):
                    info.composed[attr] = value.func.id
                if method.name in ("__init__", "__post_init__"):
                    _note_guarded(info, source, attr, statement.lineno)
    return info


def _is_not_call_but_lock(node) -> bool:
    """default_factory value referencing threading.Lock/RLock/Condition."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("Lock", "RLock", "Condition")
    if isinstance(node, ast.Name):
        return node.id in ("Lock", "RLock", "Condition")
    return False


def _note_guarded(info: LockClass, source: SourceFile, attr: str,
                  line: int) -> None:
    """Record an explicit ``guarded by <lock>`` comment annotation."""
    for candidate in (line, line - 1):
        match = GUARDED_RE.search(source.comment_on(candidate))
        if match:
            info.guarded[attr] = match.group(1)
            return


def _resolve_lock(info: LockClass, attr: str | None) -> str | None:
    if attr is None:
        return None
    if attr in info.locks:
        return attr
    return info.aliases.get(attr)


class _MethodWalker(ast.NodeVisitor):
    """Walk one method body tracking the lexically held lock set."""

    def __init__(self, info: LockClass, method_name: str) -> None:
        self.info = info
        self.method = method_name
        self.held: tuple = ()

    # -- lock acquisition ------------------------------------------------
    def _visit_with(self, node) -> None:
        acquired = []
        for item in node.items:
            lock = _resolve_lock(self.info,
                                 _self_attr(item.context_expr))
            if lock is not None:
                acquired.append(lock)
            elif item.context_expr is not None:
                self.visit(item.context_expr)
        self.held = self.held + tuple(acquired)
        for statement in node.body:
            self.visit(statement)
        if acquired:
            self.held = self.held[:-len(acquired)]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- nested defs keep the *lexical* held set (closures run later, but
    # the serving code only nests worker closures that re-acquire) -------
    def visit_FunctionDef(self, node) -> None:
        outer, self.held = self.held, ()
        self.generic_visit(node)
        self.held = outer

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    # -- mutations -------------------------------------------------------
    def _mutate(self, attr: str | None, line: int) -> None:
        if attr is None or _resolve_lock(self.info, attr):
            return
        self.info.mutations.append(
            Mutation(attr=attr, line=line,
                     held=tuple(self.held), method=self.method))

    def _target_attr(self, target) -> tuple[str | None, bool]:
        """(attr, is_container_mutation) for an assignment target."""
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            inner = _self_attr(target)
            if inner is not None and isinstance(target, ast.Attribute):
                return inner, False  # plain ``self.attr = ...``
            nested = _self_attr(getattr(target, "value", None))
            return nested, True  # ``self.attr[k] = ...`` etc.
        return None, False

    def visit_Assign(self, node) -> None:
        for target in node.targets:
            attr, _ = self._target_attr(target)
            self._mutate(attr, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node) -> None:
        attr, _ = self._target_attr(node.target)
        self._mutate(attr, node.lineno)
        self.visit(node.value)

    def visit_Delete(self, node) -> None:
        for target in node.targets:
            attr, _ = self._target_attr(target)
            self._mutate(attr, node.lineno)

    def visit_Call(self, node) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            self._mutate(_self_attr(func.value), node.lineno)
        callee = _self_attr(func.value) if isinstance(
            func, ast.Attribute) else None
        if callee is not None and self.held:
            self.info.calls_under_lock.append(
                (self.held[-1], callee, node.lineno))
        self.generic_visit(node)


def _analyze_class(source: SourceFile,
                   node: ast.ClassDef) -> LockClass | None:
    info = _scan_class(source, node)
    if not info.locks:
        return None
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        walker = _MethodWalker(info, method.name)
        for statement in method.body:
            walker.visit(statement)
    return info


def _guarded_map(info: LockClass) -> dict:
    """attr -> guarding lock: explicit annotations + observed discipline."""
    guarded = dict(info.guarded)
    for mutation in info.mutations:
        if (mutation.attr in guarded
                or mutation.method in ("__init__", "__post_init__")
                or mutation.method in info.holder_methods
                or not mutation.held):
            continue
        guarded[mutation.attr] = mutation.held[-1]
    return guarded


def _check_mutations(info: LockClass) -> list:
    violations = []
    guarded = _guarded_map(info)
    for mutation in info.mutations:
        lock = guarded.get(mutation.attr)
        if (lock is None
                or lock in mutation.held
                or mutation.method in ("__init__", "__post_init__")
                or mutation.method in info.holder_methods
                or info.source.suppressed(mutation.line, "locks")):
            continue
        violations.append(Violation(
            checker="locks", code="LOCK001",
            path=info.source.relpath, line=mutation.line,
            message=(f"{info.name}.{mutation.attr} is guarded by "
                     f"{lock} but mutated in {mutation.method}() "
                     f"without holding it")))
    return violations


def _check_deadlocks(classes: list) -> list:
    """Cycle detection over 'calls into B while holding own lock'."""
    in_scope = {info.name: info for info in classes
                if any(info.source.relpath.startswith(prefix)
                       for prefix in DEADLOCK_SCOPE)}
    edges: dict[str, set[str]] = {name: set() for name in in_scope}
    sites: dict[tuple[str, str], tuple] = {}
    for info in in_scope.values():
        for _lock, callee_attr, line in info.calls_under_lock:
            target = info.composed.get(callee_attr)
            if target in in_scope and target != info.name:
                edges[info.name].add(target)
                sites.setdefault((info.name, target),
                                 (info.source, line))
    violations = []
    for start in sorted(edges):
        cycle = _find_cycle(edges, start)
        if cycle is None:
            continue
        source, line = sites[(cycle[0], cycle[1])]
        if source.suppressed(line, "locks"):
            continue
        violations.append(Violation(
            checker="locks", code="LOCK002",
            path=source.relpath, line=line,
            message=("potential deadlock cycle: "
                     + " -> ".join(cycle)
                     + " (each edge calls into the next class while "
                       "holding its own lock)")))
        break  # one report per cycle family keeps the output readable
    return violations


def _find_cycle(edges: dict, start: str) -> list | None:
    path: list[str] = []
    seen: set[str] = set()

    def walk(node: str) -> list | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in seen:
            return None
        seen.add(node)
        path.append(node)
        for succ in sorted(edges.get(node, ())):
            found = walk(succ)
            if found:
                return found
        path.pop()
        return None

    return walk(start)


def check_locks(context: AnalysisContext) -> list:
    violations = []
    classes = []
    for source in context.files:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                info = _analyze_class(source, node)
                if info is not None:
                    classes.append(info)
                    violations.extend(_check_mutations(info))
    violations.extend(_check_deadlocks(classes))
    return violations
