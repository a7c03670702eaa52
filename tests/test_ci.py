"""The CI workflows stay executable: every command they invoke exists.

In the style of ``tests/test_docs.py``: the workflow YAML under
``.github/workflows/`` is parsed and every ``run:`` step is checked
against the repository — ``make`` targets must exist in the Makefile,
referenced scripts must exist on disk, and ``repro <verb>`` invocations
must be real CLI subcommands — so the workflow cannot rot silently when
a target, script, verb or flag is renamed.
"""

import json
import pathlib
import re
import shlex

import pytest
import yaml

from repro import cli

REPO_ROOT = pathlib.Path(__file__).parent.parent
WORKFLOWS = REPO_ROOT / ".github" / "workflows"

_MAKE_TARGET = re.compile(r"^([A-Za-z0-9_.-]+):", re.MULTILINE)


def _load(name):
    return yaml.safe_load((WORKFLOWS / name).read_text())


def _run_commands(workflow) -> list[str]:
    """Every shell line of every ``run:`` step in every job."""
    commands = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                commands.extend(line.strip()
                                for line in step["run"].splitlines()
                                if line.strip())
    return commands


def _make_targets() -> set[str]:
    return set(_MAKE_TARGET.findall((REPO_ROOT / "Makefile").read_text()))


def _cli_verbs() -> set[str]:
    parser = cli.build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse has no API
        if hasattr(action, "choices") and action.choices:
            return set(action.choices)
    return set()


def _assert_one_bench_spelling():
    """`repro bench <suite>` is the only spelling of a suite: no
    top-level `perf*` alias verb, no `benchmarks/*perf*.py` wrapper."""
    verbs = _cli_verbs()
    assert "bench" in verbs
    assert not [verb for verb in verbs if verb.startswith("perf")]
    assert not list((REPO_ROOT / "benchmarks").glob("*perf*.py"))


def _makefile_bench_commands() -> list[str]:
    """The recipe lines of every ``bench-<suite>`` target."""
    from repro.experiments import bench
    makefile = (REPO_ROOT / "Makefile").read_text()
    commands = []
    for name in bench.suite_names():
        recipe = re.search(rf"^bench-{name}:\n((?:\t.*\n?)+)", makefile,
                           re.MULTILINE)
        assert recipe, f"Makefile has no bench-{name} recipe"
        commands.extend(line.strip() for line in recipe[1].splitlines())
    return commands


def _repro_argv(command: str):
    """``repro`` CLI arguments of a shell line (``None`` if not one)."""
    tokens = shlex.split(command)
    if tokens[:1] == ["repro"]:
        return tokens[1:]
    if tokens[1:3] == ["-m", "repro.cli"]:  # $(PYTHON) -m repro.cli ...
        return tokens[3:]
    return None


class TestWorkflowsExist:
    def test_both_workflows_present(self):
        assert (WORKFLOWS / "ci.yml").is_file()
        assert (WORKFLOWS / "ci-slow.yml").is_file()

    def test_ci_triggers_on_push_and_pr(self):
        workflow = _load("ci.yml")
        # pyyaml parses the bare `on:` key as boolean True
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_ci_matrix_covers_supported_pythons(self):
        workflow = _load("ci.yml")
        matrix = workflow["jobs"]["verify"]["strategy"]["matrix"]
        assert set(matrix["python-version"]) == {"3.10", "3.11", "3.12"}

    def test_ci_slow_is_nightly_and_manual(self):
        workflow = _load("ci-slow.yml")
        triggers = workflow.get("on", workflow.get(True))
        assert "workflow_dispatch" in triggers
        assert "schedule" in triggers and triggers["schedule"]


class TestWorkflowCommandsExist:
    """Every invoked command resolves against the real repository."""

    @pytest.mark.parametrize("name", ["ci.yml", "ci-slow.yml"])
    def test_make_targets_exist(self, name):
        targets = _make_targets()
        for command in _run_commands(_load(name)):
            tokens = shlex.split(command)
            if tokens and tokens[0] == "make":
                for target in tokens[1:]:
                    assert target in targets, \
                        f"{name} invokes unknown make target {target!r}"

    @pytest.mark.parametrize("name", ["ci.yml", "ci-slow.yml"])
    def test_referenced_scripts_exist(self, name):
        for command in _run_commands(_load(name)):
            for token in shlex.split(command):
                if token.startswith(("scripts/", "benchmarks/", "src/")):
                    assert (REPO_ROOT / token).exists(), \
                        f"{name} references missing file {token!r}"

    @pytest.mark.parametrize("name", ["ci.yml", "ci-slow.yml", "Makefile"])
    def test_repro_verbs_are_real(self, name):
        """Every `repro ...` line parses whole: verb, suite and flags
        (bench flags derive from config fields, so a renamed field
        would otherwise break a workflow step silently)."""
        commands = (_makefile_bench_commands() if name == "Makefile"
                    else _run_commands(_load(name)))
        argvs = [argv for argv in map(_repro_argv, commands)
                 if argv is not None]
        assert argvs, f"{name} runs no `repro` command"
        parser = cli.build_parser()
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit as exc:  # argparse reports errors via exit
                pytest.fail(f"{name}: `repro {shlex.join(argv)}` does not "
                            f"parse (exit {exc.code})")

    def test_ci_gates_on_strict_verify(self):
        """The PR gate must run `make ci` (strict verify.sh)."""
        commands = _run_commands(_load("ci.yml"))
        assert any(c == "make ci" for c in commands)
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "verify.sh --strict" in makefile

    def test_ci_slow_runs_full_tier(self):
        commands = _run_commands(_load("ci-slow.yml"))
        assert any("verify-slow" in c for c in commands)

    def test_editable_install_is_backed_by_setup_py(self):
        """`pip install -e .` needs real packaging metadata."""
        commands = _run_commands(_load("ci.yml"))
        assert any("pip install -e ." in c for c in commands)
        setup_text = (REPO_ROOT / "setup.py").read_text()
        assert "console_scripts" in setup_text
        assert "repro = repro.cli:main" in setup_text
        assert "python_requires" in setup_text


class TestMakefileAndScripts:
    def test_ci_alias_target(self):
        assert "ci" in _make_targets()

    def test_bench_train_target_and_verb_exist(self):
        """The training-frontier entry points are wired end to end."""
        assert "bench-train" in _make_targets()
        _assert_one_bench_spelling()
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "bench train" in makefile

    def test_bench_latency_target_and_verb_exist(self):
        """The latency-frontier entry points are wired end to end."""
        assert "bench-latency" in _make_targets()
        _assert_one_bench_spelling()
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "bench latency" in makefile
        assert (REPO_ROOT / "BENCH_latency.json").is_file()

    def test_bench_refresh_target_and_verbs_exist(self):
        """The live-refresh entry points are wired end to end."""
        assert "bench-refresh" in _make_targets()
        verbs = _cli_verbs()
        for verb in ("delta-export", "apply-deltas", "refresh"):
            assert verb in verbs, f"CLI verb {verb!r} missing"
        _assert_one_bench_spelling()
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "bench refresh" in makefile
        assert (REPO_ROOT / "BENCH_refresh.json").is_file()

    def test_bench_registry_targets_cover_every_suite(self):
        """Each registry suite has its make target and committed file."""
        from repro.experiments import bench
        targets = _make_targets()
        for name in bench.suite_names():
            suite = bench.get_suite(name)
            assert suite.make_target in targets, name
            assert (REPO_ROOT / suite.output).is_file(), name

    def test_every_bench_target_belongs_to_a_suite(self):
        """The other direction: a deleted suite leaves no `bench-<x>`
        target and no `bench:` prerequisite behind."""
        from repro.experiments import bench
        suites = {bench.get_suite(name).make_target
                  for name in bench.suite_names()}
        assert len(suites) == 8
        bench_targets = {t for t in _make_targets() if t.startswith("bench-")}
        assert bench_targets == suites | {"bench-check", "bench-e2e",
                                          "bench-e2e-trace"}
        alias = re.search(r"^bench:(.*)$",
                          (REPO_ROOT / "Makefile").read_text(), re.MULTILINE)
        assert alias and set(alias[1].split()) <= suites

    def test_unified_bench_verb_and_aliases_exist(self):
        """`repro bench <suite>` is the one spelling; no aliases."""
        _assert_one_bench_spelling()

    def test_scale_entry_points_exist(self):
        """The out-of-core frontier is wired end to end."""
        assert "bench-scale" in _make_targets()
        _assert_one_bench_spelling()
        assert (REPO_ROOT / "BENCH_scale.json").is_file()

    def test_ci_slow_runs_out_of_core_smoke(self):
        commands = _run_commands(_load("ci-slow.yml"))
        assert any("bench scale" in c and "scale-100k" in c
                   for c in commands)

    def test_verify_wires_bench_check(self):
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert "bench-check" in makefile
        assert re.search(r"^verify: .*bench-check", makefile, re.MULTILINE)

    def test_verify_sh_accepts_strict(self):
        text = (REPO_ROOT / "scripts" / "verify.sh").read_text()
        assert "--strict" in text
        assert "check_bench.py" in text


class TestReadmeAdvertisesCI:
    def test_badge_points_at_workflow(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "workflows/ci.yml/badge.svg" in readme

    def test_ci_section_documents_the_split(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "Continuous integration" in readme


class TestObservabilityWiring:
    """The observability layer is wired into CLI, make, and verify."""

    def test_metrics_verb_exists(self):
        assert "metrics" in _cli_verbs()

    def test_recommend_supports_trace_flag(self):
        from repro.cli import build_parser
        text = build_parser().parse_args(
            ["recommend", "--snapshot", "x", "--users", "0", "--trace"])
        assert text.trace is True

    def test_bench_obs_target_and_artifact(self):
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert re.search(r"^bench-obs:", makefile, re.MULTILINE)
        assert "bench obs" in makefile
        assert (REPO_ROOT / "BENCH_obs.json").exists()
        _assert_one_bench_spelling()

    def test_verify_runs_metrics_smoke(self):
        text = (REPO_ROOT / "scripts" / "verify.sh").read_text()
        assert "metrics --demo --format prom --validate" in text


class TestFaultToleranceWiring:
    """The fault-injection/resilience layer is wired end to end."""

    def test_bench_faults_target_and_artifact(self):
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert re.search(r"^bench-faults:", makefile, re.MULTILINE)
        assert "bench faults" in makefile
        assert (REPO_ROOT / "BENCH_faults.json").exists()
        _assert_one_bench_spelling()

    def test_faults_suite_registered(self):
        from repro.experiments import bench
        suite = bench.get_suite("faults")
        assert suite.schema == "bsl-faults-bench/v1"
        assert suite.output == "BENCH_faults.json"
        assert "faults" in suite.required_kinds

    def test_ci_slow_runs_chaos_soak(self):
        commands = _run_commands(_load("ci-slow.yml"))
        assert any("tests/test_faults.py" in c for c in commands)
        assert any("bench faults" in c for c in commands)

    def test_chaos_soak_file_exists_and_soaks(self):
        text = (REPO_ROOT / "tests" / "test_faults.py").read_text()
        assert "TestDeterministicSoak" in text
        assert "TestRuntimeChaosSoak" in text


class TestBenchmarkSurface:
    """``bench/workloads.py`` names the program surface the repo
    benchmark runs on: the ``repro`` names it imports, and the module
    attributes it patches to attribute time per layer.  Removing an
    imported name fails the benchmark run; removing a patched one, or
    no longer calling through it, silently zeroes a layer — so each
    must fail tier-1 first."""

    @staticmethod
    def _surface():
        """``(module, attr)`` pairs the benchmark imports or patches."""
        import ast
        tree = ast.parse((REPO_ROOT / "bench" / "workloads.py").read_text())
        imported, patched = [], []
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                imported += [(node.module, a.name) for a in node.names]
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "patch" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                owner = ast.unparse(node.args[0])
                if owner.split(".")[0] == "repro":
                    patched.append((owner, node.args[1].value))
        return imported, patched

    def test_surface_is_found(self):
        imported, patched = self._surface()
        assert ("repro.serve", "ShardedRecommendationService") in imported
        assert ("repro.serve.shard", "panel_scores") in patched

    def test_every_imported_and_patched_name_resolves(self):
        import importlib
        imported, patched = self._surface()
        missing = [f"{module}.{attr}" for module, attr in imported + patched
                   if not hasattr(importlib.import_module(module), attr)]
        assert not missing, f"bench/workloads.py uses {missing}"

    def test_patched_serve_names_are_called_through(
            self, tiny_dataset, tiny_mf_snapshot, tmp_path, monkeypatch):
        """A patched name can resolve and still time nothing: serving
        must look it up as a global of the patched module per call."""
        import collections
        import importlib

        from repro.serve import (ExactTopKIndex, ShardedTopKIndex,
                                 export_sharded_snapshot)
        calls = collections.Counter()
        serve_patches = [pair for pair in self._surface()[1]
                         if pair[0].startswith("repro.serve")]
        for module, attr in serve_patches:
            owner = importlib.import_module(module)

            def counting(*args, _real=getattr(owner, attr),
                         _key=(module, attr), **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        model, snapshot = tiny_mf_snapshot
        ExactTopKIndex(snapshot).topk([0, 1], k=5)
        sharded = export_sharded_snapshot(model, tiny_dataset, tmp_path,
                                          shards=2)
        ShardedTopKIndex(sharded, workers=1).topk([0, 1], k=5)
        assert serve_patches
        assert [pair for pair in serve_patches if not calls[pair]] == []

    @pytest.mark.parametrize("grad_mode", ["dense", "sparse"])
    def test_train_step_scores_through_both_forward_names(
            self, tiny_dataset, monkeypatch, grad_mode):
        """The train workloads time ``models.forward`` by patching the
        model method named by their ``forward_method``: a step in either
        ``grad_mode`` must enter ``batch_scores``, and it must enter
        ``sampled_batch_scores``, or one workload's row reads zero."""
        import ast

        from repro.losses import get_loss
        from repro.models import MF
        from repro.train import TrainConfig, Trainer
        tree = ast.parse((REPO_ROOT / "bench" / "workloads.py").read_text())
        patch_points = sorted({
            node.value.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and [ast.unparse(t) for t in node.targets] == ["forward_method"]})
        assert patch_points == ["batch_scores", "sampled_batch_scores"]
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        trainer = Trainer(model, get_loss("bsl"), tiny_dataset, TrainConfig(
            epochs=1, batch_size=64, n_negatives=8, grad_mode=grad_mode))
        calls = []
        for name in patch_points:
            def spy(*args, _real=getattr(model, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(model, name, spy)
        trainer.train_step(next(iter(trainer.sampler.epoch())))
        assert calls == ["batch_scores", "sampled_batch_scores"], (
            f"grad_mode={grad_mode!r}: Trainer.train_step must call "
            f"model.batch_scores (patched on pipeline-9k), which must call "
            f"model.sampled_batch_scores (patched on train-sparse-100k); "
            f"saw {calls}")


class TestRepoBenchmarkWiring:
    """The repo benchmark is reachable from make, the README and CI."""

    def test_make_targets_run_the_declared_command(self):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        script = spec["command"][-1]
        assert (REPO_ROOT / script).is_file()
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert {"bench-e2e", "bench-e2e-trace"} <= _make_targets()
        assert re.search(rf"^bench-e2e:\n\t\S+ {script} --all$", makefile,
                         re.MULTILINE)
        assert re.search(rf"^bench-e2e-trace:\n\t\S+ {script} --all --trace$",
                         makefile, re.MULTILINE)

    def test_readme_points_at_the_bench_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "bench/README.md" in readme and "make bench-e2e" in readme
        assert (REPO_ROOT / "bench" / "README.md").is_file()

    def test_ci_slow_runs_the_tiny_suite(self):
        commands = _run_commands(_load("ci-slow.yml"))
        assert any("bench/run.py --all --tiny" in c for c in commands)

    def test_ci_slow_runs_sparse_training_at_full_shape(self):
        """``--tiny`` shrinks the tables to 2000 rows; the falling-loss end
        check must also run once on the 100k shape the benchmark gates."""
        commands = [c for c in _run_commands(_load("ci-slow.yml"))
                    if "bench/run.py --workload train-sparse-100k" in c]
        assert commands and all("--tiny" not in c for c in commands)
        names = {w["name"] for w in json.loads(
            (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]}
        assert "train-sparse-100k" in names

    def test_ci_slow_checks_ivf_against_exact_at_full_shape(self):
        """The toy ANN suite cannot show it: only a traced `pipeline-9k`
        pass times IVF and the exact index over the same users at a shape
        where the probed lists are real GEMMs."""
        commands = _run_commands(_load("ci-slow.yml"))
        runs = [c for c in commands
                if "bench/run.py --workload pipeline-9k" in c]
        assert runs and all("--tiny" not in c and "--trace 1" in c
                            for c in runs)
        checks = [c for c in commands[commands.index(runs[0]):]
                  if "ann.topk_p50_ms" in c]
        assert checks and all("serve.index.topk_p50_ms" in c
                              and "0 < ann < exact" in c for c in checks)
        # The index is rebuilt every op, so the build is gated too: an
        # IVF that answers fast but costs > 3 exact passes to build does
        # not pay for itself.
        assert all("'ann.build_p50_ms'" in c and "0 < build < 3 * exact" in c
                   for c in checks)
        per_layer = {m["name"] for m in json.loads(
            (REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        assert {"ann.topk_p50_ms", "ann.build_p50_ms",
                "serve.index.topk_p50_ms"} <= per_layer

    def test_ci_slow_gates_pipeline_peak_rss_at_full_shape(self):
        """The dense LightGCN step sets `pipeline-9k`'s peak RSS: a
        full-shape memory pass must fail on any failed op or above
        225 MB, reusing the inputs an earlier step built (so generating
        them is never measured)."""
        commands = _run_commands(_load("ci-slow.yml"))
        passes = [c for c in commands
                  if "bench/run.py --memory-pass --workload pipeline-9k" in c]
        assert passes and all("--tiny" not in c for c in passes)

        def work_dir(command):
            tokens = shlex.split(command)
            return tokens[tokens.index("--work-dir") + 1]
        first = commands.index(passes[0])
        builders = [c for c in commands[:first]
                    if "bench/run.py --workload pipeline-9k" in c]
        assert builders and work_dir(passes[0]) == work_dir(builders[0])
        checks = [c for c in commands[first:] if "'peak_rss_mb'" in c]
        assert checks and all("r['failed'] == 0" in c
                              and "r['peak_rss_mb'] <= 225" in c
                              for c in checks)
        end_to_end = {m["name"] for m in json.loads(
            (REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        assert "peak_rss_mb" in end_to_end
