"""Conventions of ``src/repro`` that behaviour tests cannot see.

Each check is a function over the parsed sources of ``src/repro`` that
returns one ``path:line: ...`` string per violation; its test asserts
the list is empty, and parametrized fixtures pin what it flags and what
it accepts.  A check lives here only while some violation of it passes
every behaviour test.

| check | what it enforces |
| --- | --- |
| ``lock_violations`` | a lock-protected attribute is declared, and mutated only while its lock is held |
| ``lock_cycles`` | no two lock-owning classes call into each other while holding their own locks |
| ``raise_violations`` | every ``raise`` constructs a ``ReproError`` subclass or re-raises |
| ``broad_except_violations`` | a bare or ``except Exception`` handler re-raises or gives its reason |
| ``narrowing_violations`` | the parity modules never hard-code a narrow dtype: serving computes in float64 |
| ``wall_clock_violations`` | no ``time.time()`` under ``serving/`` or ``telemetry/``: latency uses ``perf_counter`` |
| ``metric_name_violations`` | metric families are ``repro_<gateway|fleet|stage>_<what>`` with their type's suffix |

The annotations they read are plain comments and docstrings:

| annotation | where | meaning |
| --- | --- | --- |
| ``# guarded by <lock>`` | on the attribute's creating statement (or the comment line above it), in ``__init__``/``__post_init__`` or a dataclass field | every later mutation must hold ``self.<lock>`` |
| ``caller holds <lock>`` / ``caller holds the lock`` | a method's docstring | the method runs under ``<lock>`` (the lock: the class's only lock); it names no other lock |
| ``# noqa: BLE001 — <reason>`` | the ``except`` line | the catch-all is deliberate, for ``<reason>`` |

Locks are ``threading.Lock``/``RLock`` attributes (or dataclass fields
with that ``default_factory``); ``threading.Condition(self._lock)`` is
an alias of the lock it wraps.  A subclass inherits its bases' locks and
declarations.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Source:
    """One parsed module: repo-relative path, AST, and its lines."""

    path: str
    tree: ast.Module
    lines: tuple[str, ...]

    @classmethod
    def parse(cls, path: str, text: str) -> "Source":
        return cls(path, ast.parse(text, filename=path),
                   tuple(text.splitlines()))

    def text_of(self, node: ast.AST) -> str:
        """The source lines ``node`` spans, with a comment line right
        above it."""
        first = node.lineno - 1
        if first and self.lines[first - 1].lstrip().startswith("#"):
            first -= 1
        return "\n".join(self.lines[first:node.end_lineno])


@functools.cache
def repo_sources() -> tuple[Source, ...]:
    return tuple(
        Source.parse(path.relative_to(ROOT).as_posix(), path.read_text())
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")))


def _self_attr(node) -> str | None:
    """``self.<attr>`` -> ``attr``, else ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _called_name(node) -> str | None:
    """``f(...)`` / ``mod.f(...)`` -> ``f``, else ``None``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def _methods(node: ast.ClassDef):
    return [item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]


# ----------------------------------------------------------------------
# Lock discipline
# ----------------------------------------------------------------------
GUARDED_RE = re.compile(r"#\s*guarded by\s+(\w+)")
HOLDS_RE = re.compile(r"caller holds\s+(?:the lock|`*(\w+))", re.IGNORECASE)
CONSTRUCTORS = ("__init__", "__post_init__")
#: Methods of the containers the serving classes keep that change them.
MUTATORS = frozenset({
    "append", "extend", "appendleft", "extendleft", "insert", "add",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "update", "setdefault", "sort", "reverse",
})


@dataclass
class LockClass:
    """What one class creates: locks, declarations, composed parts."""

    source: Source
    node: ast.ClassDef
    locks: dict = field(default_factory=dict)  # lock or alias -> lock
    declared: dict = field(default_factory=dict)  # attr -> (lock, line)
    composed: dict = field(default_factory=dict)  # attr -> class name


def _scan(source: Source, node: ast.ClassDef) -> LockClass:
    info = LockClass(source, node)

    def note(attr: str, statement) -> None:
        match = GUARDED_RE.search(source.text_of(statement))
        if match:
            info.declared[attr] = (match.group(1), statement.lineno)

    for statement in node.body:  # dataclass fields
        if (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            factory = [kw.value for kw in getattr(statement.value,
                                                  "keywords", ())
                       if kw.arg == "default_factory"]
            if factory and isinstance(factory[0], ast.Attribute) and (
                    factory[0].attr in ("Lock", "RLock")):
                info.locks[statement.target.id] = statement.target.id
            else:
                note(statement.target.id, statement)
    for method in _methods(node):
        for statement in ast.walk(method):
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for attr in filter(None, map(_self_attr, targets)):
                value = statement.value
                name = _called_name(value)
                if name in ("Lock", "RLock"):
                    info.locks[attr] = attr
                elif name == "Condition":
                    wrapped = _self_attr(value.args[0]) if value.args else None
                    info.locks[attr] = wrapped or attr
                elif isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Name):
                    info.composed[attr] = value.func.id
                if method.name in CONSTRUCTORS:
                    note(attr, statement)
    return info


def _lock_classes(sources) -> dict[str, LockClass]:
    """Every class that owns or inherits a lock, by name, with its
    bases' locks, declarations and parts merged in."""
    scanned = {node.name: _scan(source, node) for source in sources
               for node in source.tree.body if isinstance(node, ast.ClassDef)}

    def merged(name: str) -> LockClass:
        info = scanned[name]
        for base in info.node.bases:
            base_name = getattr(base, "id", getattr(base, "attr", None))
            if base_name in scanned and base_name != name:
                parent = merged(base_name)
                for table in ("locks", "declared", "composed"):
                    getattr(info, table).update(
                        {key: value for key, value
                         in getattr(parent, table).items()
                         if key not in getattr(info, table)})
        return info

    return {name: info for name in scanned
            if (info := merged(name)).locks}


def _held_by_caller(info: LockClass, method) -> tuple[str, ...]:
    """The lock a method's docstring says its caller holds, if any."""
    match = HOLDS_RE.search(ast.get_docstring(method) or "")
    if match is None:
        return ()
    owned = set(info.locks.values())
    if match.group(1) is None:  # "the lock": the class's only lock
        return tuple(owned) if len(owned) == 1 else ()
    return (match.group(1),) if match.group(1) in owned else ()


class _Walker(ast.NodeVisitor):
    """One method body: each ``self`` mutation and each call into a
    ``self`` part, with the locks held lexically at that point."""

    def __init__(self, info: LockClass, held: tuple[str, ...]) -> None:
        self.info = info
        self.held = held
        self.mutations: list[tuple[str, int, tuple]] = []
        self.calls: list[tuple[str, int, tuple]] = []

    def visit_With(self, node) -> None:
        acquired = tuple(
            self.info.locks[attr] for item in node.items
            if (attr := _self_attr(item.context_expr)) in self.info.locks)
        outer, self.held = self.held, self.held + acquired
        self.generic_visit(node)
        self.held = outer

    visit_AsyncWith = visit_With

    def visit_FunctionDef(self, node) -> None:
        # a nested function runs later, under whatever its caller holds
        outer, self.held = self.held, ()
        self.generic_visit(node)
        self.held = outer

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def _mutate(self, target, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutate(element, line)
            return
        if isinstance(target, ast.Starred):
            self._mutate(target.value, line)
            return
        attr = _self_attr(target)
        if attr is None and isinstance(target, (ast.Subscript,
                                                ast.Attribute)):
            attr = _self_attr(target.value)  # self.attr[k] / self.attr.x
        if attr is not None and attr not in self.info.locks:
            self.mutations.append((attr, line, self.held))

    def visit_Assign(self, node) -> None:
        for target in node.targets:
            self._mutate(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node) -> None:
        if node.value is not None:
            self._mutate(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        self._mutate(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node) -> None:
        for target in node.targets:
            self._mutate(target, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            part = _self_attr(func.value)
            if part is not None and func.attr in MUTATORS:
                self._mutate(func.value, node.lineno)
            if part is not None and self.held:
                self.calls.append((part, node.lineno, self.held))
        self.generic_visit(node)


def _walk_methods(info: LockClass):
    """``(method, walker)`` for every method but the constructors."""
    for method in _methods(info.node):
        if method.name in CONSTRUCTORS:
            continue
        walker = _Walker(info, _held_by_caller(info, method))
        for statement in method.body:
            walker.visit(statement)
        yield method, walker


def lock_violations(sources) -> list[str]:
    """A mutation under a lock of an undeclared attribute, a declared
    attribute mutated without its lock, or a declaration naming no lock
    of the class."""
    found = []
    for name, info in _lock_classes(sources).items():
        path = info.source.path
        owned = set(info.locks.values())
        for attr, (lock, line) in info.declared.items():
            if lock not in owned:
                found.append(f"{path}:{line}: {name}.{attr} is guarded by "
                             f"{lock}, which is no lock of {name}")
        for method, walker in _walk_methods(info):
            for attr, line, held in walker.mutations:
                lock = info.declared.get(attr, (None,))[0]
                if lock is None and held:
                    found.append(
                        f"{path}:{line}: {name}.{attr} is mutated under "
                        f"{held[-1]} in {method.name}() but not declared "
                        f"'# guarded by {held[-1]}'")
                elif lock is not None and lock not in held:
                    found.append(
                        f"{path}:{line}: {name}.{attr} is guarded by "
                        f"{lock} but mutated in {method.name}() without it")
    return found


def lock_cycles(sources) -> list[str]:
    """Cycles of "class A calls into its part of lock-owning class B
    while holding A's lock": two such classes can deadlock."""
    classes = _lock_classes(sources)
    edges: dict[str, dict[str, str]] = {name: {} for name in classes}
    for name, info in classes.items():
        for _method, walker in _walk_methods(info):
            for part, line, _held in walker.calls:
                target = info.composed.get(part)
                if target in classes and target != name:
                    edges[name].setdefault(
                        target, f"{info.source.path}:{line}")
    found: dict[str, str] = {}

    def walk(path: list[str]) -> None:
        for succ in edges[path[-1]]:
            if succ == path[0] == min(path):  # each cycle once
                found[" -> ".join(path + [succ])] = edges[path[0]][path[1]]
            elif succ not in path:
                walk(path + [succ])

    for start in edges:
        walk([start])
    return [f"{site}: lock-acquisition cycle {cycle}"
            for cycle, site in sorted(found.items())]


# ----------------------------------------------------------------------
# Error discipline
# ----------------------------------------------------------------------
#: Exceptions that state a broken contract or exit the CLI, not a
#: failed repro operation.
NON_REPRO_RAISES = frozenset({
    "NotImplementedError", "AssertionError", "SystemExit"})
#: The exception a dunder method's protocol prescribes.
PROTOCOL_RAISES = {
    "__getitem__": {"KeyError", "IndexError"},
    "__missing__": {"KeyError"},
    "__getattr__": {"AttributeError"},
}


def _repro_errors(sources) -> set[str]:
    """Names of ``ReproError`` and every class deriving from it."""
    bases = {node.name: {getattr(base, "id", getattr(base, "attr", None))
                         for base in node.bases}
             for source in sources for node in ast.walk(source.tree)
             if isinstance(node, ast.ClassDef)}
    known = {"ReproError"}
    while grown := {name for name, names in bases.items()
                    if name not in known and names & known}:
        known |= grown
    return known


def _raises(node, function: str = ""):
    """``(raise statement, name of its innermost enclosing function)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            yield child, function
        yield from _raises(child, function)


def raise_violations(sources) -> list[str]:
    known = _repro_errors(sources) | NON_REPRO_RAISES
    return [f"{source.path}:{node.lineno}: raise {name}(...) is no "
            "ReproError subclass"
            for source in sources
            for node, function in _raises(source.tree)
            if (name := _called_name(node.exc)) is not None
            and name not in known | PROTOCOL_RAISES.get(function, set())]


BROAD = ("Exception", "BaseException")
JUSTIFIED_RE = re.compile(r"#\s*noqa: BLE001\s*[-—:]*\s*\w")


def broad_except_violations(sources) -> list[str]:
    found = []
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler) or not (
                    node.type is None or getattr(node.type, "id", "")
                    in BROAD):
                continue
            reraises = any(isinstance(inner, ast.Raise) and inner.exc is None
                           for inner in ast.walk(node))
            if not reraises and not JUSTIFIED_RE.search(
                    source.lines[node.lineno - 1]):
                found.append(f"{source.path}:{node.lineno}: a broad except "
                             "neither re-raises nor gives "
                             "'# noqa: BLE001 — <reason>'")
    return found


# ----------------------------------------------------------------------
# Parity: float64 everywhere a served bit is computed
# ----------------------------------------------------------------------
PARITY_MODULES = ("src/repro/serving/prepared.py",
                  "src/repro/serving/_csr.py",
                  "src/repro/graph/stream.py",
                  "src/repro/serving/protocol.py")
NARROW = frozenset({"float32", "float16", "int8", "int16"})
LATENCY_PATHS = ("src/repro/serving/", "src/repro/telemetry/")


def _narrow(node) -> str | None:
    name = (getattr(node, "attr", None) or getattr(node, "id", None)
            or getattr(node, "value", None))
    return name if isinstance(name, str) and name in NARROW else None


def narrowing_violations(sources) -> list[str]:
    """A literal narrow dtype passed to any call in a parity module;
    artifacts narrow at save time, in ``repro.api``."""
    return [f"{source.path}:{node.lineno}: literal {dtype} in a parity "
            "module; serving computes in float64"
            for source in sources if source.path in PARITY_MODULES
            for node in ast.walk(source.tree) if isinstance(node, ast.Call)
            for dtype in {_narrow(arg) for arg in [
                *node.args, *(kw.value for kw in node.keywords
                              if kw.arg == "dtype")]} - {None}]


def wall_clock_violations(sources) -> list[str]:
    return [f"{source.path}:{node.lineno}: time.time() on a latency path; "
            "use time.perf_counter()"
            for source in sources if source.path.startswith(LATENCY_PATHS)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and getattr(node.func.value, "id", None) == "time"]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
METRIC_RE = re.compile(r"repro_(gateway|fleet|stage)(_[a-z0-9]+)+")
SUFFIXES = {"counter": ("_total",), "histogram": ("_seconds",)}
#: A gauge takes none of these: they are counter and histogram series.
RESERVED = ("_total", "_seconds", "_count", "_sum", "_bucket")


def metric_name_violations(sources) -> list[str]:
    """Every literal family name of a ``registry.counter/gauge/histogram``
    call: ``repro_<component>_<what>``, a counter ending ``_total``, a
    histogram ``_seconds``, a gauge in neither."""
    found = []
    for source in sources:
        for node in ast.walk(source.tree):
            kind = getattr(getattr(node, "func", None), "attr", None)
            if not isinstance(node, ast.Call) or kind not in (
                    "counter", "gauge", "histogram") or not node.args:
                continue
            name = getattr(node.args[0], "value", None)
            if not isinstance(name, str):
                continue
            where = f"{source.path}:{node.lineno}: {kind} {name!r}"
            if not METRIC_RE.fullmatch(name):
                found.append(f"{where} is not repro_<gateway|fleet|stage>"
                             "_<what>")
            elif kind == "gauge" and name.endswith(RESERVED):
                found.append(f"{where} ends in a counter/histogram suffix")
            elif not name.endswith(SUFFIXES.get(kind, ("",))):
                found.append(f"{where} must end in {SUFFIXES[kind][0]}")
    return found


# ----------------------------------------------------------------------
# The checks hold at HEAD
# ----------------------------------------------------------------------
CHECKS = [lock_violations, lock_cycles, raise_violations,
          broad_except_violations, narrowing_violations,
          wall_clock_violations, metric_name_violations]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_src_keeps_the_convention(check):
    assert check(repo_sources()) == []


@pytest.mark.parametrize("attr, locked", [
    ("_pending_deltas", "        with self._delta_lock:\n"
                        "            self._pending_deltas.append("),
    ("_delta_reports", "            with self._delta_lock:\n"
                       "                self._delta_reports.append("),
])
def test_lock_check_flags_an_unlocked_runtime_mutation(attr, locked):
    """``runtime.py`` with one ``with self._delta_lock:`` line deleted
    and its body dedented."""
    path = "src/repro/serving/runtime.py"
    text = (ROOT / path).read_text()
    assert text.count(locked) == 1
    seeded = text.replace(locked, locked.split("\n")[1][4:])
    sources = [source if source.path != path else Source.parse(path, seeded)
               for source in repo_sources()]
    assert [line for line in lock_violations(sources)
            if f"ServingRuntime.{attr} is guarded by _delta_lock" in line
            and "without it" in line] != []


# ----------------------------------------------------------------------
# Fixtures: what each check flags and accepts
# ----------------------------------------------------------------------
def _run(check, files: dict[str, str]) -> list[str]:
    return check([Source.parse(path, textwrap.dedent(text))
                  for path, text in files.items()])


BOX = """\
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = threading.Lock()
        self._items = []  # guarded by _lock
        self._count = 0

    def put(self, item):
        with self._lock:
            self._items.append(item)

    def poke(self, item):
        {body}
"""


def _box(body: str) -> list[str]:
    body = textwrap.indent(body, " " * 8).lstrip()
    return _run(lock_violations, {"src/repro/box.py": BOX.format(body=body)})


@pytest.mark.parametrize("body, flagged", [
    ("self._items.append(item)", "Box._items is guarded by _lock"),
    ("self._items = [item]", "Box._items is guarded by _lock"),
    ("items, self._items = self._items, []",
     "Box._items is guarded by _lock"),
    ("self._items[0] = item", "Box._items is guarded by _lock"),
    ("with self._other:\n    self._items.clear()",
     "Box._items is guarded by _lock"),
    ("with self._lock:\n    self._count += 1",
     "Box._count is mutated under _lock"),
    ('"""Drop (caller holds ``_other``)."""\nself._items.clear()',
     "Box._items is guarded by _lock"),
    ('"""Drop (caller holds the lock)."""\nself._items.clear()',
     "Box._items is guarded by _lock"),  # two locks: "the lock" is neither
    ('"""Count (caller holds ``_lock``)."""\nself._count += 1',
     "Box._count is mutated under _lock"),
    ("with self._lock:\n    def later():\n        self._items.pop()\n"
     "    return later",
     "Box._items is guarded by _lock"),
], ids=["append", "assign", "tuple-assign", "subscript", "other-lock",
        "undeclared", "holds-other-lock", "ambiguous-the-lock",
        "holder-undeclared", "closure"])
def test_lock_check_flags(body, flagged):
    found = _box(body)
    assert len(found) == 1 and flagged in found[0], found
    assert found[0].startswith("src/repro/box.py:")


@pytest.mark.parametrize("body", [
    "with self._lock:\n    self._items.pop()",
    "with self._other, self._lock:\n    self._items.pop()",
    '"""Drop (caller holds ``_lock``)."""\nself._items.clear()',
    "self._count += 1",
    "return len(self._items)",
], ids=["locked", "both-locks", "holder", "unguarded", "read"])
def test_lock_check_accepts(body):
    assert _box(body) == []


def test_lock_check_reads_dataclass_fields_conditions_and_bases():
    module = """\
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class Tally:
            hits: int = 0  # guarded by _lock
            _lock: threading.Lock = field(default_factory=threading.Lock)

            def hit(self):
                {hit}

        class Base:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)
                self._rows = {{}}  # guarded by _lock

        class Child(Base):
            def put(self, key):
                with self._ready:
                    self._rows[key] = 1

            def drop(self, key):
                {drop}
    """
    clean = module.format(hit="with self._lock:\n                    "
                              "self.hits += 1", drop="pass")
    assert _run(lock_violations, {"src/repro/t.py": clean}) == []
    dirty = module.format(hit="self.hits += 1",
                          drop="del self._rows[key]")
    found = _run(lock_violations, {"src/repro/t.py": dirty})
    assert [line.split(": ", 1)[1].split(" is ")[0] for line in found] == [
        "Tally.hits", "Child._rows"]


def test_lock_check_flags_a_declaration_of_no_lock():
    found = _run(lock_violations, {"src/repro/box.py": """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []  # guarded by _lok
    """})
    assert len(found) == 1 and "no lock of Box" in found[0]


def _pair(a_calls_b: str, b_calls_a: str) -> dict[str, str]:
    return {"src/repro/serving/pair.py": f"""\
        import threading

        class A:
            def __init__(self):
                self._lock = threading.Lock()
                self.b = B()

            def poke(self):
                with self._lock:
                    {a_calls_b}

        class B:
            def __init__(self):
                self._lock = threading.Lock()
                self.a = A()

            def poke(self):
                \"\"\"Poke (caller holds the lock).\"\"\"
                {b_calls_a}
    """}


def test_lock_cycle_flagged():
    found = _run(lock_cycles, _pair("self.b.poke()", "self.a.poke()"))
    assert len(found) == 1 and "A -> B -> A" in found[0], found


@pytest.mark.parametrize("a_calls_b, b_calls_a", [
    ("self.b.poke()", "pass"),
    ("pass", "self.a.poke()"),
])
def test_one_way_nesting_is_no_cycle(a_calls_b, b_calls_a):
    assert _run(lock_cycles, _pair(a_calls_b, b_calls_a)) == []


ERRORS = """\
    class ReproError(Exception):
        pass

    class ShapeError(ReproError, ValueError):
        pass
"""


@pytest.mark.parametrize("body, flagged", [
    ("def f(x):\n    raise ValueError(x)", True),
    ("def f(key):\n    raise KeyError(key)", True),
    ("def f(x):\n    raise ShapeError(x)", False),
    ("class Local(ShapeError):\n    pass\n\n"
     "def f():\n    raise Local('x')", False),
    ("def f(self):\n    raise self._error", False),
    ("def f():\n    try:\n        pass\n    except OSError:\n        raise",
     False),
    ("def f():\n    raise NotImplementedError", False),
    ("class Archive:\n    def __getitem__(self, key):\n"
     "        raise KeyError(key)", False),
], ids=["builtin", "protocol-type-outside-protocol", "repro", "subclass",
        "stored", "bare", "not-implemented", "protocol"])
def test_raise_check(body, flagged):
    found = _run(raise_violations, {"src/repro/errors.py": ERRORS,
                                    "src/repro/mod.py": body})
    assert bool(found) == flagged, found


HANDLER = """\
    def f():
        try:
            return 1
        {handler}
            {body}
"""


@pytest.mark.parametrize("handler, body, flagged", [
    ("except Exception:", "return None", True),
    ("except:", "return None", True),
    ("except BaseException as error:", "return error", True),
    ("except Exception:  # noqa: BLE001", "return None", True),
    ("except Exception:  # noqa: BLE001 — a fallback", "return None", False),
    ("except Exception:", "raise", False),
    ("except ValueError:", "return None", False),
], ids=["broad", "bare", "base", "no-reason", "reason", "reraise",
        "narrow"])
def test_broad_except_check(handler, body, flagged):
    found = _run(broad_except_violations, {
        "src/repro/mod.py": HANDLER.format(handler=handler, body=body)})
    assert bool(found) == flagged, found


@pytest.mark.parametrize("path, call, flagged", [
    ("src/repro/serving/prepared.py", "x.astype(np.float32)", True),
    ("src/repro/graph/stream.py", "np.zeros(n, dtype='int8')", True),
    ("src/repro/serving/protocol.py",
     "np.ascontiguousarray(x, dtype=np.float16)", True),
    ("src/repro/serving/prepared.py", "x.astype(np.float64)", False),
    ("src/repro/serving/prepared.py", "x.astype(dtype)", False),
    ("src/repro/condense/mcond.py", "x.astype(np.float32)", False),
], ids=["astype", "dtype-string", "keyword", "float64", "variable",
        "outside-parity"])
def test_narrowing_check(path, call, flagged):
    found = _run(narrowing_violations, {path: f"""\
        import numpy as np

        def f(x, n, dtype):
            return {call}
    """})
    assert bool(found) == flagged, found


@pytest.mark.parametrize("path, call, flagged", [
    ("src/repro/serving/stats.py", "time.time()", True),
    ("src/repro/telemetry/tracing.py", "time.time()", True),
    ("src/repro/serving/stats.py", "time.perf_counter()", False),
    ("src/repro/experiments/grid.py", "time.time()", False),
], ids=["serving", "telemetry", "perf-counter", "outside"])
def test_wall_clock_check(path, call, flagged):
    found = _run(wall_clock_violations,
                 {path: f"import time\n\ndef f():\n    return {call}\n"})
    assert bool(found) == flagged, found


@pytest.mark.parametrize("call, flagged", [
    ('registry.counter("repro_fleet_requests_total", "x")', None),
    ('registry.gauge("repro_fleet_queue_depth", "x")', None),
    ('registry.histogram("repro_stage_latency_seconds", "x")', None),
    ("registry.counter(name, 'x')", None),
    ('registry.counter("fleet_requests_total", "x")', "is not repro_"),
    ('registry.counter("repro_pool_died_total", "x")', "is not repro_"),
    ('registry.counter("repro_runtime_x_total", "x")', "is not repro_"),
    ('registry.counter("repro_fleet_Replicas_total", "x")', "is not repro_"),
    ('registry.counter("repro_fleet_requests", "x")', "end in _total"),
    ('registry.histogram("repro_gateway_latency", "x")', "end in _seconds"),
    ('registry.gauge("repro_fleet_queue_total", "x")', "suffix"),
    ('registry.gauge("repro_fleet_queue_bucket", "x")', "suffix"),
], ids=["counter", "gauge", "histogram", "not-literal", "prefix",
        "component", "retired-component", "case", "counter-suffix",
        "histogram-suffix", "gauge-total", "gauge-bucket"])
def test_metric_name_check(call, flagged):
    found = _run(metric_name_violations, {
        "src/repro/telemetry/use.py": f"def wire(registry):\n    {call}\n"})
    if flagged is None:
        assert found == []
    else:
        assert len(found) == 1 and flagged in found[0], found
