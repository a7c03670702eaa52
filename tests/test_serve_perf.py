"""The serve perf harness runs, reports sane numbers, keeps its schema."""

import json

import numpy as np
import pytest

from repro.experiments.perf import (SERVE_SCHEMA, ServePerfConfig,
                                    run_serve_suite, summarize_serve,
                                    time_recommend, time_recommend_sharded,
                                    topk_overlap, write_report)
from repro.serve import (ExactTopKIndex, QuantizedTopKIndex,
                         RecommendationService,
                         ShardedRecommendationService,
                         export_sharded_snapshot)

pytestmark = pytest.mark.filterwarnings("ignore")


class TestTimers:
    def test_serve_row_fields(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        users = np.arange(32, dtype=np.int64)
        row = time_recommend(service, users, batch_size=8, k=5, repeats=2)
        assert row["kind"] == "serve"
        assert row["index"] == "exact" and row["cache"] == "cold"
        assert row["batch_size"] == 8 and row["k"] == 5
        assert row["users"] == 32 and row["repeats"] == 2
        assert row["total_s"] > 0 and row["users_per_s"] > 0
        assert row["ms_per_batch"] == pytest.approx(
            1e3 * row["total_s"] / (2 * 4))
        assert row["cache_hit_rate"] == 0.0

    def test_warm_cache_hits(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=1024)
        users = np.arange(16, dtype=np.int64)
        row = time_recommend(service, users, batch_size=16, k=5, repeats=2,
                             label="warm")
        assert row["cache"] == "warm"
        assert row["cache_hit_rate"] > 0.5  # warmup pass filled the cache

    def test_hit_rate_describes_the_timed_window(self, tiny_mf_snapshot):
        """The untimed warm-up pass (every user's first request a miss)
        is not part of the row: a warm lane is all hits, a cold lane none."""
        _, snapshot = tiny_mf_snapshot
        users = np.arange(16, dtype=np.int64)
        warm = time_recommend(
            RecommendationService(snapshot, cache_size=1024), users,
            batch_size=4, k=5, repeats=2, label="warm")
        assert warm["cache_hit_rate"] == 1.0
        cold = time_recommend(
            RecommendationService(snapshot, cache_size=0), users,
            batch_size=4, k=5, repeats=2)
        assert cold["cache_hit_rate"] == 0.0

    def test_invalid_args_rejected(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot)
        users = np.arange(4)
        with pytest.raises(ValueError):
            time_recommend(service, users, batch_size=0)
        with pytest.raises(ValueError):
            time_recommend(service, users, batch_size=2, repeats=0)

    def test_overlap_bounds(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        exact = ExactTopKIndex(snapshot)
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        assert topk_overlap(exact, exact, users, k=10) == 1.0
        quant = topk_overlap(exact, QuantizedTopKIndex(snapshot), users, k=10)
        assert 0.0 <= quant <= 1.0

    def test_sharded_row_fields(self, tiny_dataset, tiny_mf_snapshot,
                                tmp_path):
        model, _ = tiny_mf_snapshot
        sharded = export_sharded_snapshot(model, tiny_dataset, tmp_path,
                                          shards=2)
        service = ShardedRecommendationService(sharded, cache_size=0)
        users = np.arange(32, dtype=np.int64)
        row = time_recommend_sharded(service, users, batch_size=8, k=5,
                                     repeats=2, shards=2,
                                     partition_by="both",
                                     strategy="contiguous")
        assert row["kind"] == "serve_sharded"
        assert row["index"] == "sharded-exact"
        assert row["shards"] == 2 and row["partition_by"] == "both"
        assert row["users_per_s"] > 0 and row["total_s"] > 0
        assert row["merge_overhead_ms"] >= 0
        assert 0.0 <= row["merge_fraction"] < 1.0
        assert row["per_shard_bytes"] > 0
        with pytest.raises(ValueError):
            time_recommend_sharded(service, users, batch_size=0, shards=2)


class TestSuitePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        config = ServePerfConfig(dataset="tiny", model="mf", loss="sl",
                                 epochs=1, dim=8, k=5, batch_sizes=(1, 8),
                                 repeats=1, request_users=64, shards=(2, 3))
        return run_serve_suite(config)

    def test_schema_header(self, payload):
        assert payload["schema"] == SERVE_SCHEMA == "bsl-serve-bench/v2"
        assert payload["dataset"] == "tiny"
        assert payload["created_unix"] > 0
        assert len(payload["snapshot_version"]) == 16
        assert payload["config"]["batch_sizes"] == [1, 8]
        assert payload["config"]["shards"] == [2, 3]

    def test_covers_required_grid(self, payload):
        """Cold rows for every (index, batch size) plus one warm row each."""
        cold = {(r["index"], r["batch_size"]) for r in payload["results"]
                if r["kind"] == "serve" and r["cache"] == "cold"}
        assert cold == {(i, b) for i in ("exact", "quantized")
                        for b in (1, 8)}
        warm = {r["index"] for r in payload["results"]
                if r["kind"] == "serve" and r["cache"] == "warm"}
        assert warm == {"exact", "quantized"}

    def test_sharded_section_covers_grid(self, payload):
        """One sharded row per (shards, index, batch size) cell."""
        cells = {(r["shards"], r["index"], r["batch_size"])
                 for r in payload["results"] if r["kind"] == "serve_sharded"}
        assert cells == {(n, i, b) for n in (2, 3)
                         for i in ("sharded-exact", "sharded-quantized")
                         for b in (1, 8)}
        for row in payload["results"]:
            if row["kind"] == "serve_sharded":
                assert row["per_shard_bytes"] > 0
                assert np.isfinite(row["merge_overhead_ms"])
                assert 0.0 <= row["merge_fraction"] <= 1.0

    def test_validator_accepts_payload(self, payload, tmp_path):
        """The suite's own output passes scripts/check_bench.py."""
        import importlib.util
        import pathlib
        spec = importlib.util.spec_from_file_location(
            "check_bench", pathlib.Path(__file__).parent.parent
            / "scripts" / "check_bench.py")
        check_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_bench)
        assert check_bench.check_payload("BENCH_serve.json", payload) == []

    def test_overlap_row(self, payload):
        rows = [r for r in payload["results"] if r["kind"] == "overlap"]
        assert len(rows) == 1
        assert 0.0 <= rows[0]["overlap_at_k"] <= 1.0
        assert rows[0]["table_bytes"] < rows[0]["exact_table_bytes"]

    def test_no_quantized_flag(self):
        """include_quantized=False drops int8 rows, sharded ones too."""
        config = ServePerfConfig(dataset="tiny", model="mf", loss="sl",
                                 epochs=1, dim=8, k=5, batch_sizes=(4,),
                                 repeats=1, request_users=16, shards=(2,),
                                 include_quantized=False)
        payload = run_serve_suite(config)
        assert all("quantized" not in r["index"] for r in payload["results"])
        assert any(r["kind"] == "serve_sharded" for r in payload["results"])

    def test_empty_shards_skips_sharded_section(self):
        config = ServePerfConfig(dataset="tiny", model="mf", loss="sl",
                                 epochs=1, dim=8, k=5, batch_sizes=(4,),
                                 repeats=1, request_users=16, shards=())
        payload = run_serve_suite(config)
        assert all(r["kind"] != "serve_sharded" for r in payload["results"])

    def test_json_roundtrip(self, payload, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        write_report(payload, out)
        assert json.loads(out.read_text()) == json.loads(json.dumps(payload))

    def test_summarize_mentions_rows(self, payload):
        text = summarize_serve(payload)
        assert "overlap@5" in text
        assert "exact" in text and "quantized" in text
        assert "users/s" in text


class TestCLI:
    def test_perf_serve_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench.json"
        rc = main(["bench", "serve", "--dataset", "tiny",
                   "--model", "mf",
                   "--loss", "sl", "--epochs", "1", "--dim", "8",
                   "--batch-sizes", "4", "--repeats", "1",
                   "--request-users", "16", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == SERVE_SCHEMA
        assert "wrote" in capsys.readouterr().out
