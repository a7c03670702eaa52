#!/usr/bin/env python
"""Docs-link checker: README/docs references must not rot.

Scans ``README.md``, every ``docs/*.md`` and the verify skill
(``.claude/skills/verify/SKILL.md``) for four kinds of references and
fails if any is dangling:

* **Relative markdown links** — ``[text](path)`` targets that are not
  URLs or intra-page anchors must exist on disk (resolved relative to
  the file containing the link).
* **Repo file paths in inline code** — `` `src/repro/...` ``-style
  mentions of files under ``src/``, ``docs/``, ``tests/``,
  ``benchmarks/``, ``examples/`` or ``scripts/`` must exist.
* **CLI verbs** — every ``repro <verb>`` / ``repro.cli <verb>`` mention
  must be a real subcommand of the argparse tree in
  :mod:`repro.cli` (so renaming a verb without updating the docs
  fails verification).
* **Bench suites** — every ``repro bench <suite>``, ``make
  bench-<suite>`` and ``BENCH_<suite>.json`` mention must name a suite
  of the registry (:func:`repro.experiments.bench.suite_names`), so a
  deleted suite cannot live on in prose.

Run directly (``python scripts/check_docs.py``) or via
``scripts/verify.sh`` / ``make verify``; ``tests/test_docs.py`` runs the
same checks under pytest so tier-1 catches rot too.

Softer issues are reported as **warnings** — currently, pages under
``docs/`` that no other checked document links to (orphans a reader
cannot discover).  Warnings are informational by default; in CI the
workflow runs ``--strict`` (via ``scripts/verify.sh --strict``), which
turns them into failures.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: top-level prefixes whose inline-code mentions are checked on disk
_PATH_PREFIXES = ("src/", "docs/", "tests/", "benchmarks/", "examples/",
                  "scripts/")

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_CLI_VERB = re.compile(r"\brepro(?:\.cli)?\s+([a-z][a-z0-9-]*)\b")
_BENCH_SUITE = re.compile(r"\brepro(?:\.cli)?\s+bench\s+([a-z][a-z0-9-]*)\b"
                          r"|\bmake\s+bench-([a-z][a-z0-9-]*)\b"
                          r"|\bBENCH_([a-z0-9]+)\.json\b")

#: words following "repro"/"repro.cli" in prose that are not verbs
_VERB_STOPWORDS = {"command", "package", "verbs", "subcommand", "module"}

#: ``make bench-<x>`` targets that are not registry suites
_NON_SUITE_BENCH_TARGETS = {"check", "e2e", "e2e-trace"}


def doc_files() -> list[pathlib.Path]:
    """README, everything under docs/ and the verify skill (the corpus)."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    files.append(REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
    return [f for f in files if f.is_file()]


def _repro(module: str):
    """Import ``repro.<module>`` from this checkout's ``src/``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        return importlib.import_module(f"repro.{module}")
    finally:
        sys.path.pop(0)


def cli_verbs() -> set[str]:
    """Subcommand names of the real argparse tree."""
    parser = _repro("cli").build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse has no API
        if hasattr(action, "choices") and action.choices:
            return set(action.choices)
    return set()


def bench_suites() -> set[str]:
    """Suite names of the bench registry."""
    return set(_repro("experiments.bench").suite_names())


def check_file(path: pathlib.Path, verbs: set[str],
               suites: set[str]) -> list[str]:
    """Return a list of human-readable problems found in one file."""
    problems = []
    text = path.read_text()
    rel = (path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT)
           else path)

    for match in _MD_LINK.finditer(text):
        target = match.group(1).strip()
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#")[0]
        if target and not (path.parent / target).exists():
            problems.append(f"{rel}: dangling link target {target!r}")

    for match in _INLINE_CODE.finditer(text):
        code = match.group(1).strip()
        if code.startswith(_PATH_PREFIXES) and " " not in code:
            if not (REPO_ROOT / code).exists():
                problems.append(f"{rel}: referenced file {code!r} missing")

    for match in _CLI_VERB.finditer(text):
        verb = match.group(1)
        if verb in _VERB_STOPWORDS:
            continue
        if verb not in verbs:
            problems.append(f"{rel}: unknown CLI verb `repro {verb}`")

    for match in _BENCH_SUITE.finditer(text):
        verb_suite, make_suite, file_suite = match.groups()
        if make_suite in _NON_SUITE_BENCH_TARGETS:
            continue
        if (verb_suite or make_suite or file_suite) not in suites:
            problems.append(f"{rel}: `{match.group(0)}` names no registered "
                            f"bench suite")

    return problems


def find_warnings(files: list[pathlib.Path]) -> list[str]:
    """Corpus-level soft issues: ``docs/`` pages nothing links to."""
    warnings = []
    linked: set[pathlib.Path] = set()
    for path in files:
        for match in _MD_LINK.finditer(path.read_text()):
            target = match.group(1).strip().split("#")[0]
            if target and not target.startswith(("http://", "https://",
                                                 "mailto:")):
                resolved = (path.parent / target)
                if resolved.exists():
                    linked.add(resolved.resolve())
    for path in files:
        if path.parent.name == "docs" and path.resolve() not in linked:
            warnings.append(f"{path.relative_to(REPO_ROOT)}: orphan page — "
                            f"no other checked document links to it")
    return warnings


def main(argv=None) -> int:
    """Check every doc file; print problems and return their count.

    With ``--strict`` (what CI runs), warnings count as failures too.
    """
    argv = sys.argv[1:] if argv is None else argv
    strict = "--strict" in argv
    unknown = [a for a in argv if a != "--strict"]
    if unknown:
        print(f"docs-check: unknown arguments {unknown}", file=sys.stderr)
        return 2
    verbs = cli_verbs()
    suites = bench_suites()
    problems = []
    files = doc_files()
    if not files:
        problems.append("no documentation files found (README.md missing?)")
    for path in files:
        problems.extend(check_file(path, verbs, suites))
    warnings = find_warnings(files)
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    for warning in warnings:
        print(f"docs-check: warning: {warning}", file=sys.stderr)
    if not problems and not warnings:
        print(f"docs-check: {len(files)} files OK "
              f"({', '.join(str(f.relative_to(REPO_ROOT)) for f in files)})")
    return len(problems) + (len(warnings) if strict else 0)


if __name__ == "__main__":
    raise SystemExit(min(main(), 1))
