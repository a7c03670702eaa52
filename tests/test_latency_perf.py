"""Latency harness + the monotonic-floor timing fix, schema and CLI."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.experiments import perf
from repro.experiments.perf import (CLOCK_RESOLUTION_S, LATENCY_SCHEMA,
                                    LatencyPerfConfig, clamp_elapsed,
                                    run_latency_level, run_latency_suite,
                                    summarize_latency, time_index_topk,
                                    time_recommend, time_recommend_sharded,
                                    write_report)
from repro.serve import RecommendationService
from repro.serve.runtime import RuntimeConfig

pytestmark = pytest.mark.filterwarnings("ignore")

REPO_ROOT = pathlib.Path(__file__).parent.parent

_FAST_LEVEL = dict(offered_qps=2000.0, k=5)
_FAST_RUNTIME = RuntimeConfig(slo_ms=100.0, max_queue=256, initial_batch=8,
                              window=16)


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "scripts" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMonotonicFloor:
    """Regression: a too-fast timed section must clamp to one clock tick
    instead of emitting ``float("inf")`` throughput that
    ``scripts/check_bench.py`` itself rejects."""

    def test_clamp_floors_at_resolution(self):
        assert clamp_elapsed(0.0) == CLOCK_RESOLUTION_S
        assert clamp_elapsed(-1.0) == CLOCK_RESOLUTION_S
        assert clamp_elapsed(CLOCK_RESOLUTION_S / 2) == CLOCK_RESOLUTION_S

    def test_clamp_passes_real_intervals_through(self):
        assert clamp_elapsed(0.25) == 0.25

    def test_resolution_positive(self):
        assert CLOCK_RESOLUTION_S > 0.0

    @pytest.fixture()
    def frozen_clock(self, monkeypatch):
        """perf_counter that never advances: every elapsed reads 0.0."""
        monkeypatch.setattr(perf.time, "perf_counter", lambda: 123.0)

    def test_time_index_topk_finite_on_frozen_clock(self, frozen_clock):
        class InstantIndex:
            def topk(self, users, k=10):
                return None

        row = time_index_topk(InstantIndex(), np.arange(8), batch_size=4,
                              k=5, repeats=2)
        assert np.isfinite(row["users_per_s"])
        assert row["users_per_s"] == pytest.approx(8 / CLOCK_RESOLUTION_S)

    def test_time_recommend_finite_on_frozen_clock(self, frozen_clock):
        class InstantService:
            class index:
                kind = "exact"

            class stats:
                cache_hits = 0
                cache_misses = 0

            def recommend(self, users, k=10):
                return []

        row = time_recommend(InstantService(), np.arange(8), batch_size=4,
                             k=5, repeats=2)
        assert np.isfinite(row["users_per_s"])

    def test_time_recommend_sharded_finite_on_frozen_clock(self,
                                                           frozen_clock):
        class InstantStats:
            sweeps = 0
            merge_s = 0.0
            merge_fraction = 0.0

            def reset(self):
                pass

        class InstantIndex:
            kind = "sharded-exact"
            per_shard_table_bytes = [128]

        class InstantService:
            index = InstantIndex()
            router_stats = InstantStats()

            def recommend(self, users, k=10):
                return []

        row = time_recommend_sharded(InstantService(), np.arange(8),
                                     batch_size=4, k=5, repeats=2, shards=2)
        assert np.isfinite(row["users_per_s"])
        assert np.isfinite(row["merge_overhead_ms"])


class TestLatencyLevel:
    def test_row_fields_and_bounds(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        users = np.arange(40, dtype=np.int64)
        row = run_latency_level(service, users, runtime_config=_FAST_RUNTIME,
                                **_FAST_LEVEL)
        assert row["kind"] == "latency"
        assert row["index"] == "exact"
        assert row["requests"] == 40
        assert row["completed"] + row["shed"] == 40
        assert row["achieved_qps"] > 0
        assert 0.0 <= row["p50_ms"] <= row["p99_ms"]
        assert 0.0 <= row["shed_rate"] <= 1.0
        assert row["mean_queue_ms"] >= 0.0
        assert row["mean_service_ms"] >= 0.0
        assert row["slo_ms"] == _FAST_RUNTIME.slo_ms
        for value in row.values():
            if isinstance(value, float):
                assert np.isfinite(value)

    def test_rejects_bad_offered_qps(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot)
        with pytest.raises(ValueError, match="offered_qps"):
            run_latency_level(service, np.arange(4), offered_qps=0.0)

    def test_tiny_queue_sheds_and_reports(self, tiny_mf_snapshot):
        """An offered burst far beyond a 1-deep queue must shed, not
        grow an unbounded backlog — and the row must account for it."""
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        config = RuntimeConfig(slo_ms=100.0, max_queue=1, initial_batch=1,
                               max_batch=1, window=4, poll_ms=20.0)
        row = run_latency_level(service, np.arange(50, dtype=np.int64),
                                offered_qps=100_000.0, k=5,
                                runtime_config=config)
        assert row["shed"] > 0
        assert row["shed_rate"] == pytest.approx(row["shed"] / 50)
        assert row["completed"] == 50 - row["shed"]


class TestLatencySuite:
    @pytest.fixture(scope="class")
    def payload(self):
        config = LatencyPerfConfig(
            dataset="tiny", epochs=1, dim=8, start_qps=1000.0, qps_step=4.0,
            max_levels=3, requests_per_level=60, window=16)
        return run_latency_suite(config)

    def test_schema_header(self, payload):
        assert payload["schema"] == LATENCY_SCHEMA
        assert payload["dataset"] == "tiny"
        assert payload["snapshot_version"]
        assert payload["config"]["requests_per_level"] == 60

    def test_levels_sweep_offered_load(self, payload):
        rows = payload["results"]
        assert 1 <= len(rows) <= 3
        offered = [row["offered_qps"] for row in rows]
        assert offered == sorted(offered)
        for i, row in enumerate(rows):
            assert row["kind"] == "latency"
            assert row["level"] == i
            assert row["offered_qps"] == pytest.approx(1000.0 * 4.0 ** i)
        # only the last level may be saturated (the sweep stops there)
        assert all(not row["saturated"] for row in rows[:-1])

    def test_validator_accepts_payload(self, payload, check_bench,
                                       tmp_path):
        path = tmp_path / "BENCH_latency.json"
        write_report(payload, path)
        assert check_bench.check_file(path) == []

    def test_json_roundtrip(self, payload, tmp_path):
        path = tmp_path / "BENCH_latency.json"
        write_report(payload, path)
        assert json.loads(path.read_text()) == payload

    def test_summarize_mentions_levels(self, payload):
        text = summarize_latency(payload)
        assert "latency suite on tiny" in text
        for row in payload["results"]:
            assert f"{row['offered_qps']:,.0f}" in text


class TestCommittedFrontier:
    """The committed BENCH_latency.json is the PR's acceptance artefact:
    a valid p50/p99-vs-offered-load frontier ending at saturation."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_latency.json").read_text())

    def test_file_expected_by_validator(self, check_bench):
        assert "BENCH_latency.json" in check_bench.EXPECTED
        assert check_bench.check_file(REPO_ROOT / "BENCH_latency.json") == []

    def test_frontier_shape(self, committed):
        assert committed["schema"] == LATENCY_SCHEMA
        rows = [r for r in committed["results"] if r["kind"] == "latency"]
        assert len(rows) >= 3  # a frontier, not a single point
        offered = [row["offered_qps"] for row in rows]
        assert offered == sorted(offered)
        for row in rows:
            assert row["p50_ms"] <= row["p99_ms"]
            assert row["completed"] > 0

    def test_sweep_reached_saturation(self, committed):
        rows = committed["results"]
        assert rows[-1]["saturated"]
        assert all(not row["saturated"] for row in rows[:-1])


class TestCLI:
    def test_perf_latency_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "BENCH_latency.json"
        rc = main(["bench", "latency", "--dataset", "tiny",
                   "--epochs", "1",
                   "--dim", "8", "--start-qps", "1000", "--max-levels", "2",
                   "--requests-per-level", "40", "--out", str(out)])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "latency suite on tiny" in shown
        assert f"wrote {out}" in shown
        payload = json.loads(out.read_text())
        assert payload["schema"] == LATENCY_SCHEMA
