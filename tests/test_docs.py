"""``README.md`` and ``docs/*.md`` agree with the tree and the CLI.

- every relative markdown link resolves to a file;
- every ``#fragment`` into a markdown file names one of its headings
  (GitHub's slugs);
- every fenced ``repro <subcommand> --flag ...`` line names a real
  subcommand and only flags that subcommand's parser declares.

Each check returns one ``path:line: ...`` string per problem, and its
test asserts the list is empty.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
FLAG_RE = re.compile(r"--[A-Za-z0-9][\w\-]*")
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """GitHub's anchor: code ticks and punctuation dropped, spaces
    hyphenated, a repeated slug suffixed ``-1``, ``-2``, ..."""
    text = re.sub(r"[^\w\- ]", "", heading.replace("`", "").strip().lower())
    slug = text.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def heading_slugs(path: Path) -> set[str]:
    seen: dict[str, int] = {}
    return {github_slug(match.group(2), seen)
            for match in HEADING_RE.finditer(path.read_text())}


def link_problems(path: Path) -> list[str]:
    problems = []
    text = path.read_text()
    for match in LINK_RE.finditer(text):
        where = f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}"
        target = match.group(2)
        if target.startswith(EXTERNAL):
            continue
        file, _, fragment = target.partition("#")
        resolved = (path.parent / file).resolve() if file else path
        if not resolved.exists():
            problems.append(f"{where}: broken link -> {target}")
        elif (fragment and resolved.suffix == ".md"
              and fragment not in heading_slugs(resolved)):
            problems.append(f"{where}: missing anchor -> {target}")
    return problems


def snippet_invocations(path: Path) -> list[tuple[int, str, list[str]]]:
    """``(line, subcommand, [--flags])`` of each fenced ``repro ...``
    line, backslash continuations joined."""
    invocations = []
    in_fence = False
    pending, start = "", 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip().startswith("```"):
            in_fence, pending = not in_fence, ""
            continue
        if not in_fence:
            continue
        if not pending:
            start = lineno
        line = pending + line.strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        words = line.split()
        if len(words) >= 2 and words[0] == "repro" and not (
                words[1].startswith("-")):
            flags = [word.split("=")[0] for word in words[2:]
                     if FLAG_RE.fullmatch(word.split("=")[0])]
            invocations.append((start, words[1], flags))
    return invocations


def subcommand_options() -> dict[str, set[str]]:
    """Subcommand -> the option strings its parser declares."""
    return {name: set(subparser._option_string_actions)
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
            for name, subparser in action.choices.items()}


def snippet_problems(path: Path, options: dict[str, set[str]]) -> list[str]:
    problems = []
    for line, subcommand, flags in snippet_invocations(path):
        where = f"{path.name}:{line}"
        if subcommand not in options:
            problems.append(f"{where}: unknown subcommand "
                            f"'repro {subcommand}'")
            continue
        problems += [f"{where}: 'repro {subcommand}' takes no {flag}"
                     for flag in flags if flag not in options[subcommand]]
    return problems


# ----------------------------------------------------------------------
# The repository's docs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", doc_files(), ids=lambda path: path.name)
def test_links_resolve(path):
    assert link_problems(path) == []


@pytest.mark.parametrize("path", doc_files(), ids=lambda path: path.name)
def test_snippets_match_the_cli(path):
    assert snippet_problems(path, subcommand_options()) == []


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("heading, slug", [
    ("Module layout", "module-layout"),
    ("Two knobs named `precision`", "two-knobs-named-precision"),
    ("What's new? (v3)", "whats-new-v3"),
])
def test_github_slug(heading, slug):
    assert github_slug(heading, {}) == slug


def test_repeated_headings_get_suffixes(tmp_path):
    seen: dict[str, int] = {}
    assert [github_slug("Notes", seen) for _ in range(3)] == [
        "notes", "notes-1", "notes-2"]
    doc = tmp_path / "doc.md"
    doc.write_text("# Top\n\ntext\n\n### Deep dive\n")
    assert heading_slugs(doc) == {"top", "deep-dive"}


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text("# Real heading\n")
    (tmp_path / "README.md").write_text("# Readme\n")
    return tmp_path


@pytest.mark.parametrize("doc, text, problems", [
    ("README.md", "# Readme\n[a](docs/a.md) [b](docs/a.md#real-heading) "
                  "[ext](https://example.com/x#y) [self](#readme)", []),
    ("docs/b.md", "[a](a.md#real-heading) [up](../README.md)", []),
    ("README.md", "[gone](docs/missing.md)",
     ["README.md:1: broken link -> docs/missing.md"]),
    ("README.md", "\n[bad](docs/a.md#nope)",
     ["README.md:2: missing anchor -> docs/a.md#nope"]),
], ids=["resolve", "sibling", "missing-file", "missing-anchor"])
def test_link_problems(tree, doc, text, problems):
    path = tree / doc
    path.write_text(text + "\n")
    assert link_problems(path) == problems


@pytest.mark.parametrize("text, invocations", [
    ("repro outside --x\n```bash\nrepro list\ncurl -s x/metrics\n"
     "# repro comment\n```\n", [(3, "list", [])]),
    ("```bash\nrepro condense --dataset pubmed-sim \\\n"
     "               --budget 30 --output art.npz\n```\n",
     [(2, "condense", ["--dataset", "--budget", "--output"])]),
    ("```\nrepro serve-fleet --kill-one --artifact=art.npz --requests 3\n"
     "```\n", [(2, "serve-fleet", ["--kill-one", "--artifact",
                                   "--requests"])]),
], ids=["fenced-only", "continuation", "equals-form"])
def test_snippet_invocations(tmp_path, text, invocations):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    assert snippet_invocations(doc) == invocations


@pytest.mark.parametrize("snippet, problem", [
    ("repro serve-fleet --artifact a.npz --replicas 2", None),
    ("repro serve-fleet --artifact a.npz --layout mmap",
     "'repro serve-fleet' takes no --layout"),
    ("repro top --port-file p", "'repro top' takes no --port-file"),
    ("repro serve-onlin --artifact a.npz", "unknown subcommand"),
], ids=["known", "help-names-layout", "help-names-port-file", "unknown"])
def test_snippet_problems(tmp_path, snippet, problem):
    """A flag counts only when the subcommand's parser declares it: the
    help texts of ``serve-fleet`` and ``top`` name ``--layout`` and
    ``--port-file``, which neither takes."""
    doc = tmp_path / "doc.md"
    doc.write_text(f"```bash\n{snippet}\n```\n")
    found = snippet_problems(doc, subcommand_options())
    if problem is None:
        assert found == []
    else:
        assert len(found) == 1 and problem in found[0], found
