"""Documentation checker: intra-repo links and CLI-snippet drift.

The ``docs`` checker of ``repro check`` (CI's docs job runs
``repro check --only docs``).  Three rules over ``README.md`` and every
``docs/*.md``:

- **DOC001** — a relative markdown link that resolves to nothing;
- **DOC002** — a ``#fragment`` into a markdown file that matches none
  of its headings (GitHub-style slugs);
- **DOC003** — a fenced ``repro <subcommand> ...`` snippet naming a
  subcommand the CLI parser does not know, or a ``--flag`` absent from
  that subcommand's help.  Both are resolved *in process* against
  :func:`repro.cli.build_parser` — no subprocess replay — so the check
  is fast enough to run on every ``repro check``.
"""

from __future__ import annotations

import argparse
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import (
    AnalysisContext,
    Violation,
    register_checker,
)

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
FENCE_RE = re.compile(r"^```.*$")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


@dataclass(frozen=True)
class DocProblem:
    """One finding, anchored to a doc file and line."""

    path: Path
    line: int
    code: str
    message: str


def doc_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [path for path in files if path.is_file()]


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """GitHub's anchor slug: drop code ticks/punctuation, hyphenate."""
    text = heading.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    slug = re.sub(r" ", "-", text)
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def heading_slugs(path: Path) -> set[str]:
    seen: dict[str, int] = {}
    return {github_slug(match.group(2), seen)
            for match in HEADING_RE.finditer(path.read_text())}


def check_links(path: Path,
                slug_cache: dict[Path, set[str]]) -> list[DocProblem]:
    problems = []
    text = path.read_text()
    for match in LINK_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        target = match.group(2)
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        target, _, fragment = target.partition("#")
        resolved = path if not target else (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(DocProblem(
                path, line, "DOC001",
                f"broken link -> {match.group(2)}"))
            continue
        if fragment and resolved.suffix == ".md":
            if resolved not in slug_cache:
                slug_cache[resolved] = heading_slugs(resolved)
            if fragment not in slug_cache[resolved]:
                problems.append(DocProblem(
                    path, line, "DOC002",
                    f"missing anchor -> {match.group(2)}"))
    return problems


def snippet_invocations(path: Path) -> list[tuple[int, str, list[str]]]:
    """(line, subcommand, [--flags]) per ``repro ...`` line in a fence."""
    invocations = []
    in_fence = False
    pending = ""
    pending_line = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        start = pending_line if pending else lineno
        line = pending + line.strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1] + " "
            pending_line = start
            continue
        words = line.split()
        if not words or words[0] != "repro" or len(words) < 2:
            continue
        subcommand = words[1]
        if subcommand.startswith("-"):
            continue
        flags = [word.split("=")[0] for word in words[2:]
                 if re.fullmatch(r"--[A-Za-z0-9][\w\-]*(=\S*)?", word)]
        invocations.append((start, subcommand, flags))
    return invocations


def cli_help_texts() -> dict[str, str]:
    """subcommand -> its ``--help`` text, from the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    helps: dict[str, str] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                helps[name] = subparser.format_help()
    return helps


def check_snippets(path: Path,
                   help_texts: dict[str, str]) -> list[DocProblem]:
    problems = []
    for line, subcommand, flags in snippet_invocations(path):
        help_text = help_texts.get(subcommand)
        if help_text is None:
            problems.append(DocProblem(
                path, line, "DOC003",
                f"snippet uses unknown subcommand 'repro {subcommand}'"))
            continue
        for flag in flags:
            if flag not in help_text:
                problems.append(DocProblem(
                    path, line, "DOC003",
                    f"'repro {subcommand}' snippet names {flag}, "
                    "not in its --help"))
    return problems


@register_checker(
    "docs",
    description=("markdown links/anchors resolve; documented 'repro' "
                 "snippets match the live CLI parser"))
def check_docs(context: AnalysisContext) -> list:
    slug_cache: dict[Path, set[str]] = {}
    help_texts = cli_help_texts()
    problems: list[DocProblem] = []
    for path in doc_files(context.root):
        problems += check_links(path, slug_cache)
        problems += check_snippets(path, help_texts)
    return [Violation(
        checker="docs", code=problem.code,
        path=problem.path.relative_to(context.root).as_posix(),
        line=problem.line, message=problem.message)
        for problem in problems]
