#!/usr/bin/env python
"""Docs-link checker: README/docs references must not rot.

Scans ``README.md``, every ``docs/*.md`` and the verify skill
(``.claude/skills/verify/SKILL.md``) for seven kinds of references and
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
* **CLI flags** — every ``--flag`` of a ``repro <verb> ...`` command in
  an inline code span or a fenced block must be an option of that
  verb's subparser (``repro bench <suite>`` lines: of that suite's), so
  a deleted option cannot live on in an example.
* **Bench suites** — every ``repro bench <suite>``, ``make
  bench-<suite>`` and ``BENCH_<suite>.json`` mention must name a suite
  of the registry (:func:`repro.experiments.bench.suite_names`), so a
  deleted suite cannot live on in prose.
* **API keywords** — every ``Name(..., kw=...)`` call in an inline code
  span or a fenced block, where ``Name`` is in ``repro.serve.__all__``
  or ``repro.ann.__all__``, must pass only keywords that ``Name``'s
  signature has, so a deleted parameter cannot live on in an example.
* **Class names** — every CamelCase ``Name``, ``Name.attr`` or
  ``Name(`` in an inline code span must be a public ``repro`` name, a
  builtin or a class of ``tests/``, so a deleted class cannot live on
  in prose; when ``Name`` is a ``repro`` class, it must also have
  ``attr``, so a deleted method cannot either.

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

import argparse
import ast
import builtins
import functools
import importlib
import inspect
import pathlib
import pkgutil
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
_FENCE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)
_COMMAND = re.compile(r"\brepro(?:\.cli)?[ \t]+(.*)")
_FLAG = re.compile(r"--[a-z0-9][a-z0-9-]*")
_CALL = re.compile(r"\b([A-Za-z_]\w*)\(")
_KEYWORD = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)")
#: a CamelCase identifier opening a span or an argument, then its end,
#: a call or an attribute, which is captured (``BENCH_ann.json`` and
#: ``+Inf`` are no names)
_CLASS_NAME = re.compile(r"(?:^|(?<=[\s(\[{,=]))([A-Z][A-Za-z0-9]*[a-z]"
                         r"[A-Za-z0-9]*)(?:$|(?=\()|\.([A-Za-z_]\w*))")

#: packages whose exported callables have their documented keywords checked
_API_MODULES = ("serve", "ann")

#: shell tokens that end one command on a line (as does any ``#...``)
_SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>"}

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


@functools.cache
def cli_options() -> dict[tuple[str, ...], frozenset[str]]:
    """Option strings of every (sub)command, keyed by its verb path:
    ``()`` is the top level, ``("bench", "ann")`` one bench suite."""
    options = {}

    def walk(parser: argparse.ArgumentParser, path: tuple) -> None:
        actions = parser._actions  # noqa: SLF001 - argparse has no API
        options[path] = frozenset(s for action in actions
                                  for s in action.option_strings)
        for action in actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))

    walk(_repro("cli").build_parser(), ())
    return options


@functools.cache
def api_parameters() -> dict[str, frozenset[str]]:
    """Parameter names of every callable ``repro.serve`` / ``repro.ann``
    export; callables taking ``**kwargs`` accept any keyword and, like
    those without a Python signature (builtin exceptions), are left
    out."""
    params = {}
    for module in _API_MODULES:
        mod = _repro(module)
        for name in mod.__all__:
            try:
                sig = inspect.signature(getattr(mod, name))
            except (TypeError, ValueError):
                continue
            if any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values()):
                continue
            params[name] = frozenset(sig.parameters)
    return params


@functools.cache
def _repro_modules() -> tuple:
    """Every module of the ``repro`` package, imported."""
    package = _repro("cli").__package__
    return tuple(importlib.import_module(info.name)
                 for info in pkgutil.walk_packages(
                     sys.modules[package].__path__, package + "."))


def _defined(module) -> dict:
    """The names ``module`` binds to objects ``repro`` defines."""
    return {name: value for name, value in vars(module).items()
            if getattr(value, "__module__", "").startswith("repro")}


@functools.cache
def known_names() -> frozenset[str]:
    """Names a code span may use: builtins, the classes and functions
    ``repro`` defines (plus every module's ``__all__``) and the classes
    of ``tests/``."""
    names = set(dir(builtins))
    for module in _repro_modules():
        names.update(getattr(module, "__all__", ()))
        names.update(_defined(module))
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        names.update(node.name for node in ast.walk(ast.parse(
            path.read_text())) if isinstance(node, ast.ClassDef))
    return frozenset(names)


@functools.cache
def repro_classes() -> dict[str, frozenset[type]]:
    """The classes ``repro`` defines, by name."""
    classes: dict[str, set] = {}
    for module in _repro_modules():
        for name, value in _defined(module).items():
            if inspect.isclass(value):
                classes.setdefault(name, set()).add(value)
    return {name: frozenset(found) for name, found in classes.items()}


def has_attribute(cls: type, attr: str) -> bool:
    """``hasattr``, or a field the class (or a base) only annotates,
    such as a dataclass field without a default."""
    return hasattr(cls, attr) or any(
        attr in vars(base).get("__annotations__", {}) for base in cls.__mro__)


def unknown_keywords(span: str, params: dict) -> list[tuple[str, str]]:
    """``(name, keyword)`` for each keyword of a ``Name(...)`` call in
    ``span`` that ``Name``'s signature lacks.

    Only keywords at the call's own nesting depth count: in
    ``F(a, b=G(c=1))`` the ``c`` belongs to ``G``'s own match.
    """
    found = []
    for match in _CALL.finditer(span):
        name = match.group(1)
        if name not in params:
            continue
        depth, args = 0, []
        for char in span[match.end():]:
            if char in "([{":
                depth += 1
            elif char in ")]}":
                if depth == 0:
                    break
                depth -= 1
            args.append(char if depth == 0 else " ")
        found.extend((name, kw) for kw in _KEYWORD.findall("".join(args))
                     if kw not in params[name])
    return found


def _command_spans(text: str) -> list[str]:
    """Inline code spans plus fenced lines (continuations joined)."""
    spans = []
    for fence in _FENCE.findall(text):
        spans.extend(fence.replace("\\\n", " ").splitlines())
    spans.extend(_INLINE_CODE.findall(_FENCE.sub("", text)))
    return spans


def unknown_flags(span: str, options: dict) -> list[tuple[str, str]]:
    """``(command, flag)`` for each ``--flag`` of a ``repro ...``
    command in ``span`` that its subparser does not define.

    A command whose verb path ends at a placeholder (``repro bench
    <suite> --help``) names no subparser and is skipped.
    """
    found = []
    for match in _COMMAND.finditer(span):
        path, flags = (), []
        for token in match.group(1).split():
            if token in _SHELL_BREAKS or token.startswith("#"):
                break
            flag = _FLAG.match(token)
            if path + (token,) in options:
                path += (token,)
            elif flag:
                flags.append(flag.group(0))
        if path and not any(key[:-1] == path for key in options):
            found.extend((" ".join(("repro",) + path), flag)
                         for flag in flags if flag not in options[path])
    return found


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

    for span in _command_spans(text):
        for command, flag in unknown_flags(span, cli_options()):
            problems.append(f"{rel}: `{command}` has no option `{flag}`")

    inline = _INLINE_CODE.findall(_FENCE.sub("", text))
    for span in _FENCE.findall(text) + inline:
        for name, keyword in unknown_keywords(span, api_parameters()):
            problems.append(f"{rel}: `{name}` has no parameter `{keyword}`")

    for span in inline:
        for name, attr in _CLASS_NAME.findall(span.strip()):
            classes = repro_classes().get(name)
            if name not in known_names():
                problems.append(f"{rel}: `{name}` is not a public repro "
                                f"name, a builtin or a tests/ class")
            elif attr and classes and not any(has_attribute(cls, attr)
                                              for cls in classes):
                problems.append(f"{rel}: `{name}` has no attribute "
                                f"`{attr}`")

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
