"""The ANN perf harness runs, keeps its schema, and the committed
``BENCH_ann.json`` records the acceptance operating point."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.experiments.perf import (ANN_SCHEMA, AnnPerfConfig, run_ann_suite,
                                    summarize_ann, time_index_topk,
                                    write_report)
from repro.serve import ExactTopKIndex

REPO_ROOT = pathlib.Path(__file__).parent.parent

pytestmark = pytest.mark.filterwarnings("ignore")


class TestTimer:
    def test_row_fields(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        users = np.arange(32, dtype=np.int64)
        row = time_index_topk(index, users, batch_size=8, k=5, repeats=2)
        assert row["batch_size"] == 8 and row["k"] == 5
        assert row["users"] == 32 and row["repeats"] == 2
        assert row["total_s"] > 0 and row["users_per_s"] > 0
        assert row["best_pass_s"] <= row["total_s"]
        assert row["ms_per_batch"] == pytest.approx(
            1e3 * row["best_pass_s"] / 4)

    def test_invalid_args_rejected(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        users = np.arange(4)
        with pytest.raises(ValueError):
            time_index_topk(index, users, batch_size=0)
        with pytest.raises(ValueError):
            time_index_topk(index, users, batch_size=2, repeats=0)


class TestSuitePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        config = AnnPerfConfig(dataset="tiny", model="mf", loss="bpr",
                               epochs=2, dim=8, n_negatives=4, k=5,
                               nlists=(2, 4), nprobes=(1, 2),
                               batch_size=32, request_users=64, repeats=1,
                               pq_m=4, pq_ks=8)
        return run_ann_suite(config)

    def test_schema_header(self, payload):
        assert payload["schema"] == ANN_SCHEMA == "bsl-ann-bench/v1"
        assert payload["dataset"] == "tiny"
        assert payload["created_unix"] > 0
        assert len(payload["snapshot_version"]) == 16
        assert payload["config"]["nlists"] == [2, 4]
        assert payload["config"]["loss"] == "bpr"

    def test_covers_frontier_grid(self, payload):
        cells = {(r["nlist"], r["nprobe"]) for r in payload["results"]
                 if r["kind"] == "ann" and r["index"] == "ivf"}
        assert cells == {(2, 1), (2, 2), (4, 1), (4, 2)}
        assert any(r["kind"] == "ann" and r["index"] == "ivfpq"
                   for r in payload["results"])

    def test_baseline_row_present(self, payload):
        rows = [r for r in payload["results"] if r["kind"] == "ann_baseline"]
        assert len(rows) == 1
        assert rows[0]["index"] == "exact"
        assert rows[0]["users_per_s"] > 0

    def test_ann_rows_well_formed(self, payload):
        baseline = next(r for r in payload["results"]
                        if r["kind"] == "ann_baseline")
        for row in payload["results"]:
            if row["kind"] != "ann":
                continue
            assert 0.0 <= row["recall"] <= 1.0
            assert row["candidates_mean"] >= row["k"]
            assert row["users_per_s"] > 0
            assert row["speedup_vs_exact"] == pytest.approx(
                row["users_per_s"] / baseline["users_per_s"])
            assert row["index_bytes"] > 0

    def test_full_probe_rows_have_full_recall(self, payload):
        """nprobe == nlist scores every item: recall must be 1.0."""
        for row in payload["results"]:
            if (row["kind"] == "ann" and row["index"] == "ivf"
                    and row["nprobe"] == row["nlist"]):
                assert row["recall"] == 1.0

    def test_validator_accepts_payload(self, payload):
        spec = importlib.util.spec_from_file_location(
            "check_bench", REPO_ROOT / "scripts" / "check_bench.py")
        check_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_bench)
        assert check_bench.check_payload("BENCH_ann.json", payload) == []

    def test_json_roundtrip(self, payload, tmp_path):
        out = tmp_path / "BENCH_ann.json"
        write_report(payload, out)
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(payload))

    def test_summarize_mentions_frontier(self, payload):
        text = summarize_ann(payload)
        assert "exact baseline" in text
        assert "nlist=" in text and "recall@5" in text and "users/s" in text


class TestCommittedBench:
    """The checked-in BENCH_ann.json carries the acceptance point."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_ann.json").read_text())

    def test_schema(self, committed):
        assert committed["schema"] == "bsl-ann-bench/v1"
        assert committed["dataset"] == "yelp2018-small"

    def test_operating_point_meets_acceptance(self, committed):
        """recall@10 >= 0.95 at no less than exact's users/s, same stream.

        650 items in lists of ~20–80 is Python dispatch per list, not a
        retrieval workload: the toy suite only has to show IVF is not
        slower than the exact index at a qualifying point.  The >= 9k
        evidence is a ``pipeline-9k`` trace (see ``docs/ann.md``).
        """
        baseline = next(r for r in committed["results"]
                        if r["kind"] == "ann_baseline")
        qualifying = [
            r for r in committed["results"]
            if r["kind"] == "ann" and r["index"] == "ivf"
            and r["k"] == 10 and r["recall"] >= 0.95
            and r["speedup_vs_exact"] >= 1.0
            and r["batch_size"] == baseline["batch_size"]]
        assert qualifying, (
            "no committed IVF operating point with recall@10 >= 0.95 at "
            ">= 1.0x the exact index's users/s — regenerate with "
            "`make bench-ann` on an idle machine")

    def test_index_bytes_independent_of_row_order(self, committed):
        """One ``nlist`` is one index: its ``nprobe`` rows report the
        same bytes, whatever their predecessors served."""
        by_nlist = {}
        for row in committed["results"]:
            if row["kind"] == "ann" and row["index"] == "ivf":
                by_nlist.setdefault(row["nlist"], set()).add(
                    row["index_bytes"])
        assert by_nlist and all(len(b) == 1 for b in by_nlist.values())


class TestCLI:
    def test_perf_serve_ann_only(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench_ann.json"
        rc = main(["bench", "ann", "--dataset", "tiny",
                   "--nlists", "2,4", "--nprobes", "1,2",
                   "--epochs", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == ANN_SCHEMA
        captured = capsys.readouterr().out
        assert "wrote" in captured
        # `bench ann` runs the ANN suite alone: no serve payload
        assert "serve suite" not in captured
