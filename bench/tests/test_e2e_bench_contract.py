"""BENCHMARK.json against the code, and the runs against BENCHMARK.json."""

import json
import re
import shutil
import subprocess
import sys

import harness
import pinned_env
from conftest import BENCH_DIR
from workloads import WORKLOADS

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_lists_exactly_the_four_workloads_with_their_why():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()]
    assert len(SPEC["workloads"]) == 4
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_spec_metrics_match_the_harness_tables():
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in end_to_end.items()} == harness.END_TO_END
    assert {n: m["bound"] for n, m in end_to_end.items()} == {
        "op_p50_cal_ms": 0.20, "setup_s": 0.25, "peak_rss_mb": 0.05}
    assert (end_to_end["setup_s"]["unit"], end_to_end["setup_s"]["better"]) \
        == ("s", "lower")
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()) <= 0.25
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == harness.PER_LAYER
    assert len(SPEC["per_layer"]) <= 128


def test_every_name_and_unit_is_well_formed_and_used_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for m in SPEC[key])


def test_spec_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_all_prints_every_metric_by_name_and_unit(tiny_suite):
    out = tiny_suite["stdout"]
    for workload in WORKLOADS:
        # 4 timed ops and the 2 of the memory pass
        assert f"{workload}: attempted 6, failed 0, fail_frac 0.0000" in out
        assert f"{workload} [traced]: attempted 4, failed 0" in out
    for name, unit in {**harness.END_TO_END, **harness.PER_LAYER}.items():
        assert len(re.findall(rf"^  {re.escape(name)} +[-0-9.]+ "
                              rf"{re.escape(unit)}$", out, re.M)) == 4, name


def test_result_lines_carry_exactly_the_declared_metrics(tiny_suite):
    for workload in WORKLOADS:
        run = tiny_suite["files"][f"run-{workload}"]
        trace = tiny_suite["files"][f"trace-{workload}"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} \
            == harness.END_TO_END
        assert {n: m["unit"] for n, m in trace["metrics"].items()} \
            == harness.PER_LAYER
        assert all(m["value"] > 0 for m in run["metrics"].values())
        # memory comes from the pass made for it, under its own pins
        assert run["metrics"]["peak_rss_mb"]["value"] \
            == run["memory_pass"]["peak_rss_mb"]
        assert run["memory_pass"]["pinned_env"] == pinned_env.MEMORY_ENV
        assert run["fingerprint"]["pinned_env"] == pinned_env.PINNED_ENV
        assert run["failed"] == trace["failed"] == 0
        for payload in (run, trace):
            assert set(payload["fingerprint"]) == {
                "cpu_model", "nproc", "python", "numpy", "blas", "pinned_env",
                "aslr_disabled", "git_sha", "seed", "cal_ref_ms"}


def test_no_program_no_result(tmp_path):
    """In a tree with only BENCHMARK.json and bench/: non-zero, no result."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "serve-batch-100k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no program to measure" in proc.stderr
