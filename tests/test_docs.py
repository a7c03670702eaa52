"""Documentation stays executable: README commands, links, docstrings.

Three families of checks keep the docs archetype honest:

* every ``python -m repro.cli ...`` line in README/docs code fences
  must parse against the *real* argparse tree (``repro.cli.build_parser``),
  so a renamed flag or verb breaks tier-1, not a user;
* the docs-link checker (``scripts/check_docs.py``) must report zero
  dangling file references, unknown CLI verbs or flags, unregistered
  bench suites, unknown ``repro.serve`` / ``repro.ann`` keywords and
  class names that are no public ``repro`` name;
* public CLI handlers and every public ``repro.serve`` entry point must
  carry docstrings.
"""

import importlib.util
import inspect
import pathlib
import re
import shlex

import pytest

from repro import cli

REPO_ROOT = pathlib.Path(__file__).parent.parent

_FENCE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)


def _doc_files():
    return [REPO_ROOT / "README.md",
            *sorted((REPO_ROOT / "docs").glob("*.md"))]


def _cli_command_lines():
    """(file, command) for every repro.cli invocation in doc code fences."""
    commands = []
    for path in _doc_files():
        for fence in _FENCE.findall(path.read_text()):
            for line in fence.splitlines():
                line = line.split(" #")[0].strip()  # drop trailing comments
                if (line.startswith(("python -m repro.cli", "PYTHONPATH"))
                        and "repro.cli" in line):
                    commands.append((path.name, line))
    return commands


class TestReadmeCommandsParse:
    def test_quickstart_commands_exist(self):
        """The README quickstart advertises the full train->serve flow."""
        verbs = [shlex.split(cmd)[3] for _, cmd in _cli_command_lines()
                 if len(shlex.split(cmd)) > 3]
        for required in ("train", "export", "recommend", "bench"):
            assert required in verbs, f"README lost the `{required}` example"

    @pytest.mark.parametrize(
        "source,command", _cli_command_lines(),
        ids=[f"{f}:{c[:60]}" for f, c in _cli_command_lines()])
    def test_command_parses(self, source, command):
        """Each documented command line parses against the real tree."""
        tokens = shlex.split(command)
        # strip env assignments and the `python -m repro.cli` prefix
        while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
            tokens.pop(0)
        assert tokens[:3] == ["python", "-m", "repro.cli"], command
        argv = tokens[3:]
        parser = cli.build_parser()
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports errors via exit
            pytest.fail(f"{source}: {command!r} does not parse "
                        f"(exit {exc.code})")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsLinks:
    def test_checker_finds_no_problems(self, check_docs):
        verbs = check_docs.cli_verbs()
        assert verbs >= {"train", "export", "recommend", "bench"}
        suites = check_docs.bench_suites()
        assert len(suites) == 4 and "fastpath" not in suites
        files = check_docs.doc_files()
        assert REPO_ROOT / ".claude/skills/verify/SKILL.md" in files
        problems = []
        for path in files:
            problems.extend(check_docs.check_file(path, verbs, suites))
        assert problems == []

    def test_unregistered_bench_suite_is_reported(self, check_docs,
                                                  tmp_path):
        """A page naming a suite the registry does not have fails, in
        all three spellings; placeholders and non-suite targets pass."""
        page = tmp_path / "page.md"
        page.write_text(
            "Run `repro bench fastpath` (= `make bench-fastpath`) to "
            "refresh `BENCH_fastpath.json`.\n"
            "`python -m repro.cli bench ann` and `make bench-e2e` are "
            "real; so are `repro bench <suite>`, `make bench-<suite>`, "
            "`BENCH_<suite>.json`, `BENCH_*.json` and `BENCHMARK.json`.\n")
        problems = check_docs.check_file(page, check_docs.cli_verbs(),
                                         check_docs.bench_suites())
        assert len(problems) == 3
        for spelling in ("repro bench fastpath", "make bench-fastpath",
                         "BENCH_fastpath.json"):
            assert any(spelling in problem for problem in problems)

    def test_unknown_flag_is_reported(self, check_docs, tmp_path):
        """A command naming an option its subparser lacks fails, inline
        or fenced (continuations joined); real options, placeholder
        verbs and shell tails pass."""
        page = tmp_path / "page.md"
        page.write_text(
            "Build with `repro build-ann --snapshot s --out d --pq-m 4`.\n"
            "```bash\n"
            "python -m repro.cli bench ann --no-pq \\\n"
            "    --nlists 2,4 | tee log  # --not-a-flag\n"
            "```\n"
            "`repro bench <suite> --help` and `repro recommend --ann DIR` "
            "are real.\n")
        problems = check_docs.check_file(page, check_docs.cli_verbs(),
                                         check_docs.bench_suites())
        assert len(problems) == 2
        assert any("`repro build-ann` has no option `--pq-m`" in problem
                   for problem in problems)
        assert any("`repro bench ann` has no option `--no-pq`" in problem
                   for problem in problems)

    def test_unknown_api_keyword_is_reported(self, check_docs, tmp_path):
        """A ``repro.serve`` / ``repro.ann`` call passing a keyword its
        signature lacks fails, inline or fenced across lines; real
        keywords, nested calls' own keywords and unexported names pass."""
        page = tmp_path / "page.md"
        page.write_text(
            "Route with `ShardedTopKIndex(sharded, ann=built)`.\n"
            "```python\n"
            "service = RecommendationService(\n"
            "    snapshot, index=load_ann_index(path, snapshot, verify=True),\n"
            "    kind=\"int8\")\n"
            "```\n"
            "`ShardedTopKIndex(sharded, workers=2)`, `f(x, ann=1)` and "
            "`build_ann_index(snapshot, out, nlist=16)` are real.\n")
        problems = check_docs.check_file(page, check_docs.cli_verbs(),
                                         check_docs.bench_suites())
        assert len(problems) == 2
        assert any("`ShardedTopKIndex` has no parameter `ann`" in problem
                   for problem in problems)
        assert any("`RecommendationService` has no parameter `kind`"
                   in problem for problem in problems)

    def test_unknown_class_name_is_reported(self, check_docs, tmp_path):
        """A CamelCase name in a code span that is no public ``repro``
        name, builtin or ``tests/`` class fails, alone, as an attribute
        base or called; real names and file-like spans pass."""
        page = tmp_path / "page.md"
        page.write_text(
            "The flat `SnapshotManifest` and `FaultyIndex.topk` are gone, "
            "as is `f(IndexIVF(d))`.\n"
            "`ExactTopKIndex(snapshot)`, `ShardedManifest.from_json`, "
            "`ValueError`, `TestLivePublish`, `BENCH_ann.json`, `+Inf`, "
            "`np.float64` and `SHARDED_SCHEMA` are real.\n")
        problems = check_docs.check_file(page, check_docs.cli_verbs(),
                                         check_docs.bench_suites())
        assert len(problems) == 3
        for name in ("SnapshotManifest", "FaultyIndex", "IndexIVF"):
            assert any(f"`{name}` is not a public repro name" in problem
                       for problem in problems)

    def test_missing_method_is_reported(self, check_docs, tmp_path):
        """``Name.attr`` of a ``repro`` class must name an attribute it
        has; an annotated-only field counts, and names outside
        ``repro`` are not looked into."""
        page = tmp_path / "page.md"
        page.write_text(
            "`Recommender.predict_scores(users)` and "
            "`RuntimeStats.breakdown()` are gone.\n"
            "`Recommender.scoring_tables()`, `ServingRuntime.breakdown()`, "
            "`EvalResult.metrics`, `InteractionSource.test_pairs` and "
            "`ValueError.nothing` pass.\n")
        problems = check_docs.check_file(page, check_docs.cli_verbs(),
                                         check_docs.bench_suites())
        assert sorted(problems) == [
            f"{page}: `Recommender` has no attribute `predict_scores`",
            f"{page}: `RuntimeStats` has no attribute `breakdown`"]

    def test_required_docs_exist(self):
        for path in ("README.md", "docs/architecture.md",
                     "docs/fastpath.md", "docs/sharding.md"):
            assert (REPO_ROOT / path).is_file(), f"{path} missing"

    def test_no_orphan_docs_pages(self, check_docs):
        """Strict mode's warning class stays clean in-tree."""
        assert check_docs.find_warnings(check_docs.doc_files()) == []


class TestDocstrings:
    def test_cli_handlers_documented(self):
        handlers = [obj for name, obj in vars(cli).items()
                    if name.startswith("_cmd_") and callable(obj)]
        assert len(handlers) >= 7
        undocumented = [h.__name__ for h in handlers if not inspect.getdoc(h)]
        assert undocumented == []
        assert inspect.getdoc(cli.build_parser)
        assert inspect.getdoc(cli.main)

    def test_serve_public_api_documented(self):
        import repro.serve as serve

        undocumented = []
        for name in serve.__all__:
            obj = getattr(serve, name)
            if isinstance(obj, str):
                continue
            if not inspect.getdoc(obj):
                undocumented.append(name)
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_") or not callable(member):
                        continue
                    if not inspect.getdoc(member):
                        undocumented.append(f"{name}.{mname}")
        assert undocumented == []

    def test_serve_modules_documented(self):
        import repro.serve
        import repro.serve.index
        import repro.serve.router
        import repro.serve.service
        import repro.serve.shard
        import repro.serve.snapshot

        for module in (repro.serve, repro.serve.index, repro.serve.router,
                       repro.serve.service, repro.serve.shard,
                       repro.serve.snapshot):
            assert module.__doc__ and len(module.__doc__) > 80
