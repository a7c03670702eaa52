"""The bench-schema validator catches rot; the committed files pass it.

The validator's file list and required columns come from the suite
registry (:mod:`repro.experiments.bench`), so this module also pins the
registry <-> validator <-> repo-file coverage in both directions: every
registry suite must have its output file committed and validated, and
every committed ``BENCH_*.json`` must belong to a registry suite.

``repro bench <suite>`` flags are derived from the suites' config
dataclasses, so the flag surface is frozen here too (``TestFlagSurface``)
and every suite's payload must record every config field
(``TestPayloadConfig``).
"""

import dataclasses
import importlib.util
import json
import pathlib
import shlex

import pytest

from repro import cli
from repro.data.synthetic import ScaleConfig
from repro.experiments import bench, faults_perf, perf, scale_perf

REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "scripts" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minimal_ann_payload():
    return {
        "schema": "bsl-ann-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"k": 5},
        "results": [
            {"kind": "ann_baseline", "index": "exact", "k": 5,
             "batch_size": 32, "users_per_s": 100.0},
            {"kind": "ann", "index": "ivf", "nlist": 4, "nprobe": 2,
             "recall": 0.97, "users_per_s": 300.0, "k": 5,
             "batch_size": 32, "candidates_mean": 20.0,
             "speedup_vs_exact": 3.0},
        ],
    }


def _minimal_latency_payload():
    return {
        "schema": "bsl-latency-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"k": 5},
        "results": [
            {"kind": "latency", "index": "exact", "offered_qps": 100.0,
             "achieved_qps": 99.0, "p50_ms": 1.0, "p99_ms": 2.0,
             "shed_rate": 0.0, "k": 5, "slo_ms": 50.0,
             "mean_queue_ms": 0.5, "mean_service_ms": 0.4},
        ],
    }


def _minimal_scale_payload():
    return {
        "schema": "bsl-scale-bench/v1",
        "created_unix": 1.0,
        "dataset": "tiny",
        "config": {"levels": ["tiny"]},
        "results": [
            {"kind": "scale", "level": "tiny", "num_users": 100,
             "num_items": 80, "catalogue": 8000, "num_train": 500,
             "dim": 8, "batch_size": 64, "n_negatives": 4, "steps": 3,
             "ms_per_step": 1.0, "users_per_s": 100.0,
             "peak_rss_mb": 50.0, "est_dense_bytes": 8000,
             "shard_bytes": 4096},
        ],
    }


class TestRegistryCoverage:
    """Registry <-> validator <-> committed files, both directions."""

    def test_every_suite_output_is_validated(self, check_bench):
        for name in bench.suite_names():
            suite = bench.get_suite(name)
            assert suite.output in check_bench.EXPECTED, name

    def test_every_validated_file_belongs_to_a_suite(self, check_bench):
        outputs = {bench.get_suite(n).output for n in bench.suite_names()}
        assert set(check_bench.EXPECTED) == outputs

    def test_every_suite_output_is_committed(self):
        for name in bench.suite_names():
            suite = bench.get_suite(name)
            assert (REPO_ROOT / suite.output).is_file(), (
                f"suite {name!r} promises {suite.output} but the repo "
                f"does not carry it — run `make {suite.make_target}`")

    def test_every_committed_bench_file_has_a_suite(self):
        outputs = {bench.get_suite(n).output for n in bench.suite_names()}
        for path in REPO_ROOT.glob("BENCH_*.json"):
            assert path.name in outputs, (
                f"{path.name} is committed but no registry suite owns it")

    def test_registry_is_the_four_suites(self, capsys):
        assert bench.suite_names() == ["ann", "latency", "faults", "scale"]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["bench", "fastpath"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_required_kinds_have_row_fields(self, check_bench):
        for name in bench.suite_names():
            for kind in bench.get_suite(name).required_kinds:
                assert check_bench.REQUIRED_FIELDS.get(kind), (name, kind)


class TestRepoFilesPass:
    def test_committed_bench_files_validate(self, check_bench):
        assert check_bench.main([]) == 0

    def test_ann_file_expected(self, check_bench):
        assert "BENCH_ann.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_ann.json").read_text())
        assert payload["schema"] == "bsl-ann-bench/v1"
        kinds = {row["kind"] for row in payload["results"]}
        assert {"ann", "ann_baseline"} <= kinds

    def test_latency_file_expected(self, check_bench):
        assert "BENCH_latency.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_latency.json").read_text())
        assert payload["schema"] == "bsl-latency-bench/v1"
        assert {row["kind"] for row in payload["results"]} == {"latency"}

    def test_scale_file_expected(self, check_bench):
        assert "BENCH_scale.json" in check_bench.EXPECTED
        payload = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
        assert payload["schema"] == "bsl-scale-bench/v1"
        assert {row["kind"] for row in payload["results"]} == {"scale"}


class TestValidatorCatchesRot:
    def test_good_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_ann.json",
                                             _minimal_ann_payload())
        assert problems == []

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["schema"] = "bsl-ann-bench/v2"
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("does not match expected" in p for p in problems)

    def test_missing_section_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"] = [r for r in payload["results"]
                              if r["kind"] != "ann"]
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("'ann'" in p and "required section" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_numbers_rejected(self, check_bench, bad):
        payload = _minimal_ann_payload()
        payload["results"][0]["users_per_s"] = bad
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_missing_row_fields_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        del payload["results"][1]["speedup_vs_exact"]
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("missing fields" in p and "speedup_vs_exact" in p
                   for p in problems)

    def test_missing_top_level_key_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        del payload["results"]
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("missing top-level key" in p for p in problems)

    def test_empty_results_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"] = []
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("empty" in p for p in problems)

    def test_missing_file_reported(self, check_bench, tmp_path):
        problems = check_bench.check_file(tmp_path / "BENCH_ann.json")
        assert any("file missing" in p for p in problems)

    def test_invalid_json_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_ann.json"
        path.write_text("{not json")
        problems = check_bench.check_file(path)
        assert any("invalid JSON" in p for p in problems)

    def test_unknown_file_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_other.json"
        path.write_text("{}")
        problems = check_bench.check_file(path)
        assert any("unknown bench file" in p for p in problems)


class TestAnnValidation:
    def test_good_ann_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_ann.json",
                                             _minimal_ann_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("nlist", "nprobe", "recall", "users_per_s"):
            payload = _minimal_ann_payload()
            del payload["results"][1][column]
            problems = check_bench.check_payload("BENCH_ann.json", payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_baseline_section_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"] = [r for r in payload["results"]
                              if r["kind"] != "ann_baseline"]
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("ann_baseline" in p and "required section" in p
                   for p in problems)

    def test_non_finite_recall_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["results"][1]["recall"] = float("nan")
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_ann_payload()
        payload["schema"] = "bsl-ann-bench/v0"
        problems = check_bench.check_payload("BENCH_ann.json", payload)
        assert any("does not match expected" in p for p in problems)


class TestLatencyValidation:
    def test_good_latency_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_latency.json",
                                             _minimal_latency_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("offered_qps", "achieved_qps", "p50_ms", "p99_ms",
                       "shed_rate", "slo_ms", "mean_queue_ms",
                       "mean_service_ms"):
            payload = _minimal_latency_payload()
            del payload["results"][0][column]
            problems = check_bench.check_payload("BENCH_latency.json",
                                                 payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_latency_section_rejected(self, check_bench):
        payload = _minimal_latency_payload()
        payload["results"][0]["kind"] = "other"
        problems = check_bench.check_payload("BENCH_latency.json", payload)
        assert any("latency" in p and "required section" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_latency_rejected(self, check_bench, bad):
        payload = _minimal_latency_payload()
        payload["results"][0]["p99_ms"] = bad
        problems = check_bench.check_payload("BENCH_latency.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_latency_payload()
        payload["schema"] = "bsl-latency-bench/v0"
        problems = check_bench.check_payload("BENCH_latency.json", payload)
        assert any("does not match expected" in p for p in problems)


class TestScaleValidation:
    def test_good_scale_payload_passes(self, check_bench):
        problems = check_bench.check_payload("BENCH_scale.json",
                                             _minimal_scale_payload())
        assert problems == []

    def test_missing_frontier_columns_rejected(self, check_bench):
        for column in ("level", "num_users", "num_items", "ms_per_step",
                       "users_per_s", "peak_rss_mb", "est_dense_bytes",
                       "shard_bytes"):
            payload = _minimal_scale_payload()
            del payload["results"][0][column]
            problems = check_bench.check_payload("BENCH_scale.json", payload)
            assert any("missing fields" in p and column in p
                       for p in problems), column

    def test_missing_scale_section_rejected(self, check_bench):
        payload = _minimal_scale_payload()
        payload["results"][0]["kind"] = "other"
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("'scale'" in p and "required section" in p
                   for p in problems)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rss_rejected(self, check_bench, bad):
        payload = _minimal_scale_payload()
        payload["results"][0]["peak_rss_mb"] = bad
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("non-finite" in p for p in problems)

    def test_wrong_schema_rejected(self, check_bench):
        payload = _minimal_scale_payload()
        payload["schema"] = "bsl-scale-bench/v0"
        problems = check_bench.check_payload("BENCH_scale.json", payload)
        assert any("does not match expected" in p for p in problems)


# Every option string `repro bench <suite>` accepted when the flags were
# still written out by hand (121, minus the dead `--no-quality`, the 12
# of the deleted `fastpath` suite and the 38 of the deleted `train`,
# `serve` and `obs` suites), each given a non-default value, with the
# config that line must build.
_FLAG_SURFACE = {
    "ann": (
        "--dataset tiny --k 5 --nlists 2,4 --nprobes 1,2 --loss bsl "
        "--epochs 1 --seed 3 --out x.json",
        perf.AnnPerfConfig(
            dataset="tiny", k=5, nlists=(2, 4), nprobes=(1, 2), loss="bsl",
            epochs=1, seed=3)),
    "latency": (
        "--dataset tiny --model lightgcn --loss sl --epochs 1 --dim 8 "
        "--k 5 --start-qps 1000 --qps-step 4 --max-levels 2 "
        "--requests-per-level 40 --saturation-ratio 0.5 --slo-ms 20 "
        "--max-queue 32 --initial-batch 2 --max-batch 16 --window 8 "
        "--seed 3 --out x.json",
        perf.LatencyPerfConfig(
            dataset="tiny", model="lightgcn", loss="sl", epochs=1, dim=8,
            k=5, start_qps=1000.0, qps_step=4.0, max_levels=2,
            requests_per_level=40, saturation_ratio=0.5, slo_ms=20.0,
            max_queue=32, initial_batch=2, max_batch=16, window=8, seed=3)),
    "faults": (
        "--dataset tiny --model lightgcn --loss sl --epochs 1 --dim 8 "
        "--k 5 --shards 2 --requests 30 --slo-ms 20 --deadline-ms 10 "
        "--hedge-ms 1 --retries 2 --latency-ms 30 --rates 0.0,0.1 "
        "--seed 3 --out x.json",
        faults_perf.FaultsPerfConfig(
            dataset="tiny", model="lightgcn", loss="sl", epochs=1, dim=8,
            k=5, shards=2, requests=30, slo_ms=20.0, deadline_ms=10.0,
            hedge_ms=1.0, retries=2, latency_ms=30.0,
            fault_rates=(0.0, 0.1), seed=3)),
    "scale": (
        "--levels scale-100k --dim 8 --steps 4 --warmup 1 --batch-size 128 "
        "--negatives 4 --serve-batches 2 --serve-batch-size 32 --k 5 "
        "--shards 2 --work-dir /tmp/w --keep-work --seed 3 --out x.json",
        scale_perf.ScalePerfConfig(
            levels=("scale-100k",), dim=8, steps=4, warmup=1, batch_size=128,
            n_negatives=4, serve_batches=2, serve_batch_size=32, k=5,
            shards=2, work_dir="/tmp/w", keep_work=True, seed=3)),
}


def _parse_bench(name, line):
    """``(args, config)`` of one ``repro bench <name> ...`` line."""
    args = cli.build_parser().parse_args(["bench", name, *shlex.split(line)])
    return args, bench.get_suite(name).config_from(args)


def _flag_of(field):
    return "--" + bench.FLAG_SPELLINGS.get(
        field.name, field.name).replace("_", "-")


class TestFlagSurface:
    """The derived flags are the flags the hand-written sets accepted."""

    def test_frozen_surface_is_complete(self):
        assert set(_FLAG_SURFACE) == set(bench.suite_names())
        flags = [token for line, _ in _FLAG_SURFACE.values()
                 for token in line.split() if token.startswith("--")]
        assert len(flags) == 56

    @pytest.mark.parametrize("name", sorted(_FLAG_SURFACE))
    def test_every_frozen_flag_is_accepted(self, name):
        line, expected = _FLAG_SURFACE[name]
        args, config = _parse_bench(name, line)
        assert config == expected
        assert args.out == "x.json"

    @pytest.mark.parametrize("name", sorted(_FLAG_SURFACE))
    def test_no_flags_builds_the_default_config(self, name):
        suite = bench.get_suite(name)
        args, config = _parse_bench(name, "")
        assert config == suite.config()
        assert args.out == suite.output == f"BENCH_{name}.json"
        assert suite.make_target == f"bench-{name}"

    @pytest.mark.parametrize("name,field", [
        pytest.param(name, field, id=f"{name}-{field.name}")
        for name in sorted(_FLAG_SURFACE)
        for field in dataclasses.fields(bench.get_suite(name).config)
        if isinstance(field.default, tuple)])
    def test_tuple_flags_round_trip(self, name, field):
        text = ",".join(str(value) for value in field.default)
        _, config = _parse_bench(name, f"{_flag_of(field)} {text}")
        assert getattr(config, field.name) == field.default
        _, config = _parse_bench(name, f"{_flag_of(field)} ''")
        assert getattr(config, field.name) == ()

    def test_ci_slow_lines_build_the_same_configs(self):
        _, config = _parse_bench(
            "scale", "--levels scale-100k --steps 4 --warmup 1 "
                     "--serve-batches 2 --out /tmp/s.json")
        assert config == scale_perf.ScalePerfConfig(
            levels=("scale-100k",), steps=4, warmup=1, serve_batches=2)
        _, config = _parse_bench(
            "faults", "--requests 120 --rates 0.0,0.1 --out /tmp/f.json")
        assert config == faults_perf.FaultsPerfConfig(
            requests=120, fault_rates=(0.0, 0.1))

    @pytest.mark.parametrize("name,flag", [
        (name, _flag_of(field)) for name in sorted(_FLAG_SURFACE)
        for field in dataclasses.fields(bench.get_suite(name).config)
        if field.name in bench.FLAG_CHOICES])
    def test_unknown_registry_name_exits_2(self, name, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_bench(name, f"{flag} nope")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


_TINY_SCALE = ScaleConfig(num_users=400, num_items=300, num_clusters=8,
                          mean_interactions=6.0, users_per_chunk=128,
                          block_rows=512, seed=13, name="tiny")

# One tiny config per suite, at or under the shapes the suite tests use.
_TINY_CONFIGS = {
    "ann": perf.AnnPerfConfig(
        dataset="tiny", epochs=1, dim=8, n_negatives=4, k=5, nlists=(2,),
        nprobes=(1,), batch_size=32, request_users=64, repeats=1),
    "latency": perf.LatencyPerfConfig(
        dataset="tiny", epochs=1, dim=8, start_qps=1000.0, max_levels=1,
        requests_per_level=40, window=16),
    "faults": faults_perf.FaultsPerfConfig(
        dataset="tiny", epochs=1, dim=8, k=5, shards=2, requests=8,
        fault_rates=(0.0,)),
    "scale": scale_perf.ScalePerfConfig(
        levels=(_TINY_SCALE,), dim=8, steps=2, warmup=1, batch_size=128,
        n_negatives=4, serve_batches=1, serve_batch_size=32, k=5, shards=2),
}


class TestPayloadConfig:
    """Every suite's payload records every knob of the run."""

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("name", sorted(_TINY_CONFIGS))
    def test_config_block_carries_every_field(self, name, check_bench,
                                              tmp_path, monkeypatch):
        suite = bench.get_suite(name)
        config = _TINY_CONFIGS[name]
        if name == "scale":
            # the header is the parent's work, so phases may run in-process
            monkeypatch.setattr(
                scale_perf, "_run_phase_subprocess",
                lambda phase, work_dir, env: scale_perf.run_scale_phase(
                    phase, work_dir))
            config = dataclasses.replace(config, work_dir=str(tmp_path))
        payload = suite.run(config)
        assert check_bench.check_payload(suite.output, payload) == []
        assert payload["schema"] == suite.schema
        names = {f.name for f in dataclasses.fields(suite.config)}
        assert names - {"dataset", "work_dir", "keep_work"} \
            <= set(payload["config"])
        for key, value in payload["config"].items():
            if key != "levels":
                assert value == json.loads(json.dumps(getattr(config, key)))
        if name == "scale":
            assert payload["dataset"] == "tiny"
            assert payload["config"]["levels"] == ["tiny"]
            assert not {"work_dir", "keep_work"} & set(payload["config"])
        else:
            assert payload["dataset"] == config.dataset
            assert "dataset" not in payload["config"]
