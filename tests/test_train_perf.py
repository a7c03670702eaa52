"""The committed training-throughput frontier holds its claims.

``BENCH_train.json`` is regenerated by ``make bench-train``; these
tests pin the claims the ROADMAP makes about the row-sparse training
engine **on the committed file**, so a regression in the sparse path
cannot be committed silently:

* at the largest swept catalogue, sparse-mode mf training must run at
  >= 3x the dense step throughput for every swept loss;
* sparse step time must not scale with the catalogue: across a 64x
  catalogue sweep its growth must stay an order of magnitude below the
  dense path's growth (the sparse cost saturates at the batch's touched
  rows; the dense cost is linear in the catalogue);
* the lazy fast path must not trade accuracy: converged NDCG@20 within
  1% of dense;
* every sparse row says how many table rows a step rewrote
  (``touched_rows`` / ``touched_frac``), so "sparse" is never quoted
  without its touched fraction.

The suite itself (fast config) is exercised on tiny.
"""

import json
import pathlib

import pytest

from repro.experiments.perf import (TRAIN_SCHEMA, TrainPerfConfig,
                                    inflate_catalogue, run_train_suite,
                                    summarize_train)

REPO_ROOT = pathlib.Path(__file__).parent.parent

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO_ROOT / "BENCH_train.json").read_text())


def _throughput_rows(payload):
    return [r for r in payload["results"] if r["kind"] == "train_throughput"]


def _assert_touched_columns(rows):
    """Sparse rows carry the touched-row columns; dense rows do not."""
    for row in rows:
        if row["grad_mode"] == "dense":
            assert "touched_rows" not in row and "touched_frac" not in row
            continue
        tables = row["num_users"] + row["num_items"]       # mf: two tables
        assert 0 < row["touched_rows"] <= min(
            tables, row["batch_size"] * (2 + row["n_negatives"]))
        assert row["touched_frac"] == pytest.approx(
            row["touched_rows"] / tables)


class TestCommittedFrontier:
    def test_schema_and_sections(self, committed):
        assert committed["schema"] == TRAIN_SCHEMA == "bsl-train-bench/v1"
        kinds = {r["kind"] for r in committed["results"]}
        assert {"train_throughput", "train_quality"} <= kinds

    def test_sweeps_both_losses_and_modes(self, committed):
        rows = _throughput_rows(committed)
        cells = {(r["loss"], r["grad_mode"], r["num_items"]) for r in rows}
        losses = {r["loss"] for r in rows}
        scales = sorted({r["num_items"] for r in rows})
        assert losses == {"bpr", "bsl"}
        assert len(scales) >= 3
        # full grid: every (loss, mode, catalogue) cell present
        assert len(cells) == len(losses) * 2 * len(scales)

    def test_sparse_at_least_3x_dense_at_largest_catalogue(self, committed):
        """Acceptance: >= 3x dense step throughput at the largest sweep."""
        rows = _throughput_rows(committed)
        largest = max(r["num_items"] for r in rows)
        for loss in ("bpr", "bsl"):
            by_mode = {r["grad_mode"]: r for r in rows
                       if r["loss"] == loss and r["num_items"] == largest}
            speedup = (by_mode["sparse"]["steps_per_s"]
                       / by_mode["dense"]["steps_per_s"])
            assert speedup >= 3.0, \
                f"{loss}: sparse only {speedup:.2f}x dense at {largest} items"

    def test_sparse_step_time_does_not_scale_with_catalogue(self, committed):
        """Sparse growth across the sweep stays an order of magnitude
        below dense growth (and bounded absolutely): the sparse step
        cost saturates at the batch's touched rows while the dense cost
        is linear in the catalogue."""
        rows = _throughput_rows(committed)
        smallest = min(r["num_items"] for r in rows)
        largest = max(r["num_items"] for r in rows)
        catalogue_growth = largest / smallest
        assert catalogue_growth >= 8  # the sweep must actually sweep
        for loss in ("bpr", "bsl"):
            def ms(mode, items):
                return next(r["ms_per_step"] for r in rows
                            if r["loss"] == loss and r["grad_mode"] == mode
                            and r["num_items"] == items)
            sparse_growth = ms("sparse", largest) / ms("sparse", smallest)
            dense_growth = ms("dense", largest) / ms("dense", smallest)
            assert sparse_growth <= 8.0, \
                f"{loss}: sparse step time grew {sparse_growth:.1f}x over " \
                f"a {catalogue_growth:.0f}x catalogue sweep"
            assert sparse_growth <= dense_growth / 10.0, \
                f"{loss}: sparse growth {sparse_growth:.1f}x is not an " \
                f"order of magnitude below dense growth {dense_growth:.1f}x"

    def test_sparse_rows_report_touched_fraction(self, committed):
        _assert_touched_columns(_throughput_rows(committed))

    def test_lazy_quality_within_1pct_of_dense(self, committed):
        quality = {r["grad_mode"]: r for r in committed["results"]
                   if r["kind"] == "train_quality"}
        assert quality["sparse"]["sparse_mode"] == "lazy"
        dense, sparse = (quality["dense"]["ndcg_at_20"],
                         quality["sparse"]["ndcg_at_20"])
        assert dense > 0
        assert abs(sparse - dense) / dense <= 0.01, \
            f"lazy NDCG@20 {sparse:.5f} vs dense {dense:.5f}"

    def test_config_records_workload(self, committed):
        config = committed["config"]
        assert config["model"] == "mf"
        assert set(config["losses"]) == {"bpr", "bsl"}
        assert config["batch_size"] > 0 and config["n_negatives"] > 0


class TestInflateCatalogue:
    def test_inflation_preserves_interactions(self, tiny_dataset):
        inflated = inflate_catalogue(tiny_dataset, 4)
        assert inflated.num_items == 4 * tiny_dataset.num_items
        assert inflated.num_users == tiny_dataset.num_users
        assert inflated.num_train == tiny_dataset.num_train
        assert inflated.num_test == tiny_dataset.num_test

    def test_scale_one_is_identity(self, tiny_dataset):
        assert inflate_catalogue(tiny_dataset, 1) is tiny_dataset

    def test_rejects_bad_scale(self, tiny_dataset):
        with pytest.raises(ValueError):
            inflate_catalogue(tiny_dataset, 0)


class TestSuiteRuns:
    @pytest.fixture(scope="class")
    def payload(self):
        config = TrainPerfConfig(dataset="tiny", catalogue_scales=(1, 2),
                                 steps=2, warmup=1, dim=8, batch_size=64,
                                 n_negatives=8, quality_epochs=1)
        return run_train_suite(config)

    def test_payload_schema(self, payload):
        assert payload["schema"] == TRAIN_SCHEMA
        assert payload["dataset"] == "tiny"

    def test_grid_covered(self, payload):
        rows = _throughput_rows(payload)
        assert {(r["loss"], r["grad_mode"]) for r in rows} == \
            {(l, m) for l in ("bpr", "bsl") for m in ("dense", "sparse")}
        assert {r["catalogue_scale"] for r in rows} == {1, 2}
        for row in rows:
            assert row["ms_per_step"] > 0
            assert row["num_items"] == row["catalogue_scale"] * 80
        _assert_touched_columns(rows)

    def test_quality_rows_present(self, payload):
        quality = [r for r in payload["results"]
                   if r["kind"] == "train_quality"]
        assert {r["grad_mode"] for r in quality} == {"dense", "sparse"}

    def test_summarize_reports_gain(self, payload):
        text = summarize_train(payload)
        assert "vs dense" in text and "ndcg@20" in text

    def test_validates_against_bench_checker(self, payload):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_bench", REPO_ROOT / "scripts" / "check_bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.check_payload("BENCH_train.json", payload) == []


class TestCLI:
    def test_perf_train_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench.json"
        rc = main(["bench", "train", "--dataset", "tiny",
                   "--scales", "1,2",
                   "--steps", "2", "--warmup", "1", "--dim", "8",
                   "--batch-size", "64", "--negatives", "8",
                   "--quality-epochs", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == TRAIN_SCHEMA
        assert "wrote" in capsys.readouterr().out
