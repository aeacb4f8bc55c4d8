"""The static-analysis pass: framework, five checkers, CLI, and the gate.

Fixture suites build tiny synthetic ``src/repro`` trees per checker
(positive + negative cases), the JSON report validates against its
schema checker, and — the gate
itself — ``repro check`` must run clean on this repository at HEAD.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    build_report,
    check_analysis_report_schema,
    run_checkers,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path: Path, files: dict) -> Path:
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return tmp_path


def findings(tmp_path: Path, files: dict, only: list):
    tree = make_tree(tmp_path, files)
    violations, _counts, _context = run_checkers(tree, only=only)
    return violations


# ----------------------------------------------------------------------
# Lock discipline
# ----------------------------------------------------------------------
LOCKED_CLASS = """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def put(self, item):
            with self._lock:
                self._items.append(item)

        def {bad}(self, item):
            {body}
"""


class TestLockChecker:
    def _run(self, tmp_path, body, bad="rush"):
        return findings(tmp_path, {
            "src/repro/box.py": LOCKED_CLASS.format(bad=bad, body=body),
        }, ["locks"])

    def test_unlocked_mutation_of_guarded_attr_flagged(self, tmp_path):
        violations = self._run(tmp_path, "self._items.append(item)")
        assert [v.code for v in violations] == ["LOCK001"]
        assert "_items" in violations[0].message
        assert violations[0].path == "src/repro/box.py"

    def test_locked_mutation_passes(self, tmp_path):
        body = "with self._lock:\n                self._items.pop()"
        assert self._run(tmp_path, body) == []

    def test_plain_assignment_outside_lock_flagged(self, tmp_path):
        violations = self._run(tmp_path, "self._items = [item]")
        assert [v.code for v in violations] == ["LOCK001"]

    def test_caller_holds_docstring_exempts_helper(self, tmp_path):
        body = ('"""Append (caller holds the lock)."""\n'
                "            self._items.append(item)")
        assert self._run(tmp_path, body) == []

    def test_init_mutations_exempt(self, tmp_path):
        # the __init__ assignments in the template never trigger
        body = "with self._lock:\n                self._items.clear()"
        assert self._run(tmp_path, body) == []

    def test_inline_suppression_with_reason(self, tmp_path):
        body = ("self._items.append(item)"
                "  # repro-check: locks single-threaded test hook")
        assert self._run(tmp_path, body) == []

    def test_bare_suppression_marker_does_not_waive(self, tmp_path):
        body = "self._items.append(item)  # repro-check: locks"
        assert [v.code for v in self._run(tmp_path, body)] == ["LOCK001"]

    def test_explicit_guarded_comment_creates_the_contract(self, tmp_path):
        # no mutation ever happens under the lock, so only the comment
        # annotation can establish that _count is guarded
        violations = findings(tmp_path, {"src/repro/box.py": """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded by _lock

                def bump(self):
                    self._count += 1
        """}, ["locks"])
        assert [v.code for v in violations] == ["LOCK001"]

    def test_condition_aliases_its_wrapped_lock(self, tmp_path):
        violations = findings(tmp_path, {"src/repro/box.py": """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._ready = threading.Condition(self._lock)
                    self._items = []

                def put(self, item):
                    with self._lock:
                        self._items.append(item)

                def drain(self):
                    with self._ready:
                        self._items.clear()
        """}, ["locks"])
        assert violations == []

    def test_deadlock_cycle_across_serving_classes(self, tmp_path):
        fleet = """\
            import threading

            from repro.serving.gateway import Gateway

            class Fleet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.gateway = Gateway()

                def poke(self):
                    with self._lock:
                        self.gateway.poke()
        """
        gateway = """\
            import threading

            class Gateway:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.fleet = Fleet()

                def poke(self):
                    with self._lock:
                        self.fleet.poke()
        """
        violations = findings(tmp_path, {
            "src/repro/serving/fleet.py": fleet,
            "src/repro/serving/gateway.py": gateway,
        }, ["locks"])
        assert [v.code for v in violations] == ["LOCK002"]
        assert "deadlock" in violations[0].message

    def test_one_directional_nesting_is_no_cycle(self, tmp_path):
        fleet = """\
            import threading

            class Fleet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.gateway = Gateway()

                def poke(self):
                    with self._lock:
                        self.gateway.poke()
        """
        gateway = """\
            import threading

            class Gateway:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass
        """
        assert findings(tmp_path, {
            "src/repro/serving/fleet.py": fleet,
            "src/repro/serving/gateway.py": gateway,
        }, ["locks"]) == []

    def test_live_serving_modules_hold_the_line(self):
        # regression pin for the lock-discipline sweep: the modules the
        # issue singles out must stay LOCK-clean from here on
        violations, _counts, _context = run_checkers(
            REPO_ROOT, only=["locks"])
        dirty = [v for v in violations if any(
            v.path.endswith(name) for name in (
                "serving/stats.py", "serving/queue.py",
                "telemetry/metrics.py", "serving/fleet.py"))]
        assert dirty == []


# ----------------------------------------------------------------------
# Error discipline
# ----------------------------------------------------------------------
class TestErrorChecker:
    def _run(self, tmp_path, body):
        return findings(tmp_path, {
            "src/repro/errors.py": "class ReproError(Exception):\n"
                                   "    pass\n"
                                   "class ShapeError(ReproError):\n"
                                   "    pass\n",
            "src/repro/mod.py": body,
        }, ["errors"])

    def test_stdlib_raise_flagged(self, tmp_path):
        violations = self._run(tmp_path, """\
            def f(x):
                raise ValueError(f"bad {x}")
        """)
        assert [v.code for v in violations] == ["ERR001"]
        assert "ValueError" in violations[0].message

    def test_project_error_subclass_passes(self, tmp_path):
        assert self._run(tmp_path, """\
            from repro.errors import ShapeError

            def f(x):
                raise ShapeError(f"bad {x}")
        """) == []

    def test_transitive_subclass_defined_elsewhere_passes(self, tmp_path):
        # mirrors TelemetryError: declared outside errors.py but still
        # part of the hierarchy, resolved project-wide
        assert self._run(tmp_path, """\
            from repro.errors import ShapeError

            class LocalError(ShapeError):
                pass

            def f():
                raise LocalError("nope")
        """) == []

    def test_stored_exception_reraise_passes(self, tmp_path):
        assert self._run(tmp_path, """\
            class Future:
                def result(self):
                    if self._error is not None:
                        raise self._error
        """) == []

    def test_protocol_methods_keep_their_exceptions(self, tmp_path):
        assert self._run(tmp_path, """\
            class Archive:
                def __getitem__(self, key):
                    raise KeyError(key)

                def __getattr__(self, name):
                    raise AttributeError(name)
        """) == []

    def test_protocol_exception_outside_protocol_flagged(self, tmp_path):
        violations = self._run(tmp_path, """\
            def fetch(key):
                raise KeyError(key)
        """)
        assert [v.code for v in violations] == ["ERR001"]

    def test_broad_except_without_reason_flagged(self, tmp_path):
        violations = self._run(tmp_path, """\
            def f():
                try:
                    return 1
                except Exception:
                    return None
        """)
        assert [v.code for v in violations] == ["ERR002"]

    def test_bare_except_flagged(self, tmp_path):
        violations = self._run(tmp_path, """\
            def f():
                try:
                    return 1
                except:
                    return None
        """)
        assert [v.code for v in violations] == ["ERR002"]
        assert "bare except" in violations[0].message

    def test_noqa_with_reason_waives(self, tmp_path):
        assert self._run(tmp_path, """\
            def f():
                try:
                    return 1
                except Exception:  # noqa: BLE001 — fallback is fine here
                    return None
        """) == []

    def test_noqa_without_reason_does_not_waive(self, tmp_path):
        violations = self._run(tmp_path, """\
            def f():
                try:
                    return 1
                except Exception:  # noqa: BLE001
                    return None
        """)
        assert [v.code for v in violations] == ["ERR002"]

    def test_cleanup_and_reraise_waives(self, tmp_path):
        assert self._run(tmp_path, """\
            def f(handle):
                try:
                    return handle.read()
                except Exception:
                    handle.close()
                    raise
        """) == []


# ----------------------------------------------------------------------
# Parity / dtype discipline
# ----------------------------------------------------------------------
class TestParityChecker:
    def test_literal_narrowing_in_parity_module_flagged(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/serving/prepared.py": """\
                import numpy as np

                def shrink(x):
                    return x.astype(np.float32)
            """}, ["parity"])
        assert [v.code for v in violations] == ["PAR001"]
        assert "float32" in violations[0].message

    def test_dtype_keyword_and_string_spelling_flagged(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/graph/stream.py": """\
                import numpy as np

                def build(n):
                    return np.zeros(n, dtype="int8")
            """}, ["parity"])
        assert [v.code for v in violations] == ["PAR001"]

    def test_variable_dtype_passes(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/serving/prepared.py": """\
                import numpy as np

                def cast(x, dtype):
                    return x.astype(dtype)
            """}, ["parity"])
        assert violations == []

    def test_narrowing_outside_parity_modules_ignored(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/condense/stuff.py": """\
                import numpy as np

                def shrink(x):
                    return x.astype(np.float32)
            """}, ["parity"])
        assert violations == []

    def test_time_time_in_latency_path_flagged(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/serving/stats.py": """\
                import time

                def stamp():
                    return time.time()
            """}, ["parity"])
        assert [v.code for v in violations] == ["PAR002"]
        assert "perf_counter" in violations[0].message

    def test_perf_counter_passes(self, tmp_path):
        violations = findings(tmp_path, {
            "src/repro/telemetry/t.py": """\
                import time

                def stamp():
                    return time.perf_counter()
            """}, ["parity"])
        assert violations == []


# ----------------------------------------------------------------------
# Telemetry naming
# ----------------------------------------------------------------------
class TestNamingChecker:
    def _run(self, tmp_path, call):
        return findings(tmp_path, {
            "src/repro/telemetry/use.py": f"""\
                def wire(registry):
                    {call}
            """}, ["naming"])

    def test_convention_names_pass(self, tmp_path):
        assert self._run(
            tmp_path,
            'registry.counter("repro_fleet_requests_total", "served")',
        ) == []

    def test_bad_prefix_flagged(self, tmp_path):
        violations = self._run(
            tmp_path, 'registry.counter("fleet_requests_total", "x")')
        assert [v.code for v in violations] == ["NAM001"]

    def test_unknown_component_flagged(self, tmp_path):
        violations = self._run(
            tmp_path, 'registry.counter("repro_widget_requests_total", "x")')
        assert [v.code for v in violations] == ["NAM002"]

    def test_retired_runtime_component_flagged(self, tmp_path):
        # the in-process runtime owns no metric family any more
        violations = self._run(
            tmp_path, 'registry.counter("repro_runtime_x_total", "x")')
        assert [v.code for v in violations] == ["NAM002"]

    def test_counter_without_total_flagged(self, tmp_path):
        violations = self._run(
            tmp_path, 'registry.counter("repro_fleet_requests", "x")')
        assert [v.code for v in violations] == ["NAM003"]
        assert "_total" in violations[0].message

    def test_histogram_without_seconds_flagged(self, tmp_path):
        violations = self._run(
            tmp_path, 'registry.histogram("repro_gateway_latency", "x")')
        assert [v.code for v in violations] == ["NAM003"]

    def test_gauge_with_reserved_suffix_flagged(self, tmp_path):
        violations = self._run(
            tmp_path, 'registry.gauge("repro_fleet_queue_total", "x")')
        assert [v.code for v in violations] == ["NAM003"]

    def test_gauge_plain_name_passes(self, tmp_path):
        assert self._run(
            tmp_path, 'registry.gauge("repro_fleet_queue_depth", "x")',
        ) == []

    def test_non_literal_names_ignored(self, tmp_path):
        assert self._run(tmp_path, "registry.counter(name, 'x')") == []


# ----------------------------------------------------------------------
# Report schema, CLI
# ----------------------------------------------------------------------
VIOLATING_TREE = {
    "src/repro/mod.py": """\
        def f(x):
            raise ValueError(f"bad {x}")
    """,
}


class TestReport:
    def test_report_schema_accepts_real_report(self, tmp_path):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        violations, counts, context = run_checkers(tree, only=["errors"])
        report = build_report(violations, counts, context)
        check_analysis_report_schema(report)
        # every finding is reported: there is no suppression file
        assert set(report) == {"kind", "schema_version", "files_scanned",
                               "checkers", "violations", "clean"}
        assert len(report["violations"]) == 1 and not report["clean"]

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("violations"),
        lambda r: r.update(kind="other-report"),
        lambda r: r.update(schema_version=99),
        lambda r: r.update(clean=True),
        lambda r: r["violations"][0].pop("line"),
        lambda r: r.update(checkers={}),
    ])
    def test_report_schema_rejects_drift(self, tmp_path, mutate):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        violations, counts, context = run_checkers(tree, only=["errors"])
        report = build_report(violations, counts, context)
        mutate(report)
        with pytest.raises(AnalysisError):
            check_analysis_report_schema(report)

    def test_unknown_checker_name_raises(self, tmp_path):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        with pytest.raises(Exception) as excinfo:
            run_checkers(tree, only=["nope"])
        assert "nope" in str(excinfo.value)


class TestCheckCli:
    def test_violations_exit_1_and_json_report(self, tmp_path, capsys):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        out = tmp_path / "report.json"
        code = main(["check", "--root", str(tree), "--format", "json",
                     "--only", "errors", "--output", str(out)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads(out.read_text())
        assert report["kind"] == "analysis-report"
        assert [v["code"] for v in report["violations"]] == ["ERR001"]

    def test_drifted_report_exits_2_before_writing(self, tmp_path, capsys,
                                                   monkeypatch):
        import repro.analysis

        def drifted(*args, **kwargs):
            report = build_report(*args, **kwargs)
            del report["files_scanned"]
            return report

        monkeypatch.setattr(repro.analysis, "build_report", drifted)
        tree = make_tree(tmp_path, VIOLATING_TREE)
        out = tmp_path / "report.json"
        assert main(["check", "--root", str(tree), "--only", "errors",
                     "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "files_scanned" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_baseline_flags_are_gone(self, tmp_path, flag):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--root", str(tree), flag,
                  str(tmp_path / "baseline.json")])
        assert excinfo.value.code == 2

    def test_disable_skips_a_checker(self, tmp_path, capsys):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        code = main(["check", "--root", str(tree),
                     "--disable", "errors", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "errors" not in report["checkers"]
        assert report["clean"]

    def test_unknown_checker_exits_2(self, tmp_path):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        assert main(["check", "--root", str(tree),
                     "--only", "bogus"]) == 2

    def test_text_report_names_file_and_code(self, tmp_path, capsys):
        tree = make_tree(tmp_path, VIOLATING_TREE)
        assert main(["check", "--root", str(tree),
                     "--only", "errors"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/mod.py" in out and "ERR001" in out


# ----------------------------------------------------------------------
# The gate: this repository must be clean at HEAD
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_repro_check_runs_clean_at_head(self):
        violations, counts, context = run_checkers(REPO_ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)
        # all four project checkers plus docs actually ran
        assert set(counts) == {"locks", "errors", "parity", "naming", "docs"}
        assert len(context.files) > 50
