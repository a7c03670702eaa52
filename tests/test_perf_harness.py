"""The perf harness runs, reports sane numbers, and keeps its schema."""

import json

import pytest

from repro.experiments.perf import (PerfConfig, SCHEMA, run_perf_suite,
                                    summarize, time_eval, time_train_steps,
                                    write_report)

pytestmark = pytest.mark.filterwarnings("ignore")

_FAST = dict(steps=2, warmup=1, dim=8, batch_size=64, n_negatives=8)


class TestTimers:
    def test_train_row_fields(self, tiny_dataset):
        row = time_train_steps("mf", "sl", tiny_dataset, **_FAST)
        assert row["kind"] == "train_step"
        assert row["model"] == "mf" and row["loss"] == "sl"
        assert row["fused"] is True and row["cache_propagation"] is True
        assert row["steps"] == 2
        assert row["total_s"] > 0
        assert row["ms_per_step"] == pytest.approx(
            1e3 * row["total_s"] / row["steps"])
        assert row["steps_per_s"] > 0

    def test_eval_row_fields(self, tiny_dataset):
        row = time_eval("mf", tiny_dataset, repeats=2, dim=8)
        assert row["kind"] == "eval"
        assert row["chunked"] is True
        assert row["users"] > 0
        assert row["users_per_s"] > 0

    def test_reference_flags_recorded(self, tiny_dataset):
        row = time_train_steps("lightgcn", "bsl", tiny_dataset,
                               fused=False, cache_propagation=False, **_FAST)
        assert row["fused"] is False and row["cache_propagation"] is False


class TestSuitePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        config = PerfConfig(dataset="tiny",
                            models=("mf", "lightgcn", "simgcl"),
                            losses=("sl", "bsl"),
                            eval_repeats=1, include_reference=True, **_FAST)
        return run_perf_suite(config)

    def test_schema_header(self, payload):
        assert payload["schema"] == SCHEMA == "bsl-fastpath-bench/v1"
        assert payload["dataset"] == "tiny"
        assert payload["created_unix"] > 0
        assert payload["config"]["models"] == ["mf", "lightgcn", "simgcl"]
        assert payload["config"]["losses"] == ["sl", "bsl"]

    def test_covers_required_grid(self, payload):
        """Acceptance: train rows for {mf, lightgcn, simgcl} x {sl, bsl}."""
        train = {(r["model"], r["loss"]) for r in payload["results"]
                 if r["kind"] == "train_step" and r["fused"]}
        assert train == {(m, l) for m in ("mf", "lightgcn", "simgcl")
                         for l in ("sl", "bsl")}
        evals = {r["model"] for r in payload["results"]
                 if r["kind"] == "eval" and r["chunked"]}
        assert evals == {"mf", "lightgcn", "simgcl"}

    def test_reference_rows_present(self, payload):
        assert any(r["kind"] == "train_step" and not r["fused"]
                   for r in payload["results"])
        assert any(r["kind"] == "eval" and not r["chunked"]
                   for r in payload["results"])

    def test_json_roundtrip(self, payload, tmp_path):
        out = tmp_path / "BENCH_fastpath.json"
        write_report(payload, out)
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["schema"] == SCHEMA

    def test_summarize_mentions_every_cell(self, payload):
        text = summarize(payload)
        for model in ("mf", "lightgcn", "simgcl"):
            assert model in text
        assert "ms/step" in text and "users/s" in text


class TestCLI:
    def test_perf_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench.json"
        rc = main(["bench", "fastpath", "--dataset", "tiny",
                   "--models", "mf",
                   "--losses", "sl", "--steps", "2", "--warmup", "1",
                   "--dim", "8", "--batch-size", "64", "--negatives", "8",
                   "--eval-repeats", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        captured = capsys.readouterr().out
        assert "wrote" in captured
