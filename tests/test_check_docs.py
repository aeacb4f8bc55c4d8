"""The docs checker: link resolution, anchors, snippet parsing.

Exercises the pure pieces of :mod:`repro.analysis.docs` on synthetic
doc trees.  The flag-drift half (DOC003 against the live parser) runs
as ``repro check --only docs`` in CI's docs job, not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import docs as check_docs

ROOT = Path(__file__).resolve().parent.parent


class TestSlugs:
    def test_plain_heading(self):
        assert check_docs.github_slug("Module layout", {}) == "module-layout"

    def test_code_ticks_and_punctuation_dropped(self):
        assert (check_docs.github_slug("Two knobs named `precision`", {})
                == "two-knobs-named-precision")

    def test_duplicate_headings_get_suffixes(self):
        seen = {}
        assert check_docs.github_slug("Notes", seen) == "notes"
        assert check_docs.github_slug("Notes", seen) == "notes-1"

    def test_heading_slugs_reads_all_levels(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Top\n\ntext\n\n### Deep dive\n")
        assert check_docs.heading_slugs(doc) == {"top", "deep-dive"}


class TestLinks:
    @pytest.fixture()
    def tree(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text("# Real heading\n")
        return tmp_path

    def test_good_links_pass(self, tree):
        readme = tree / "README.md"
        readme.write_text("[a](docs/a.md) [anchor](docs/a.md#real-heading) "
                          "[ext](https://example.com/x#y)\n")
        assert check_docs.check_links(readme, {}) == []

    def test_broken_file_and_anchor_flagged(self, tree):
        readme = tree / "README.md"
        readme.write_text("[gone](docs/missing.md) [bad](docs/a.md#nope)\n")
        problems = check_docs.check_links(readme, {})
        assert [p.code for p in problems] == ["DOC001", "DOC002"]
        assert "docs/missing.md" in problems[0].message
        assert "#nope" in problems[1].message
        assert all(p.path == readme and p.line == 1 for p in problems)

    def test_sibling_links_resolve_from_docs_dir(self, tree):
        sibling = tree / "docs" / "b.md"
        sibling.write_text("[a](a.md#real-heading) [up](../README.md)\n")
        (tree / "README.md").write_text("# Readme\n")
        assert check_docs.check_links(sibling, {}) == []


class TestSnippetParsing:
    def _parse(self, tmp_path, text):
        doc = tmp_path / "doc.md"
        doc.write_text(text)
        return [(subcommand, flags) for _line, subcommand, flags
                in check_docs.snippet_invocations(doc)]

    def test_only_fenced_repro_lines_count(self, tmp_path):
        got = self._parse(tmp_path, (
            "repro outside-fence --x\n"
            "```bash\n"
            "repro list\n"
            "curl -s localhost:80/metrics\n"
            "# repro commented? still parsed as repro? no: starts with #\n"
            "```\n"))
        assert got == [("list", [])]

    def test_line_continuations_joined(self, tmp_path):
        got = self._parse(tmp_path, (
            "```bash\n"
            "repro condense --dataset pubmed-sim \\\n"
            "               --budget 30 --output art.npz\n"
            "```\n"))
        assert got == [("condense", ["--dataset", "--budget", "--output"])]

    def test_flag_values_and_equals_form(self, tmp_path):
        got = self._parse(tmp_path, (
            "```bash\n"
            "repro serve-fleet --kill-one --artifact=art.npz --requests 3\n"
            "```\n"))
        assert got == [("serve-fleet",
                        ["--kill-one", "--artifact", "--requests"])]

    def test_repo_docs_reference_real_subcommands(self):
        # cheap half of the CI drift check: every documented subcommand
        # must exist in the CLI parser (no subprocesses involved)
        from repro.cli import build_parser
        actions = [a for a in build_parser()._actions
                   if hasattr(a, "choices") and isinstance(a.choices, dict)]
        known = set(actions[0].choices) if actions else set()
        assert known, "could not introspect CLI subcommands"
        for path in check_docs.doc_files(ROOT):
            for _, subcommand, _ in check_docs.snippet_invocations(path):
                assert subcommand in known, (
                    f"{path.name} documents unknown subcommand "
                    f"{subcommand!r}")
