"""Tiny end-to-end passes: layer attribution and what ``--seed`` changes."""

import hashlib
import json

import pytest

from conftest import run_bench


#: ``generate_scale_shards`` stamps the wall clock into its manifest and
#: offers no way to pin it; every array and every export is compared.
UNPINNED = {"bench-manifest.json", "interactions.json"}


def _digest(directory) -> str:
    """One hash over every generated input file."""
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name not in UNPINNED:
            sha.update(str(path.relative_to(directory)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("workload", ["train-sparse-100k", "serve-batch-100k"])
def test_layer_rows_explain_the_op(tiny_suite, workload):
    trace = tiny_suite["files"][f"trace-{workload}"]
    rows = {name: row["self_p50_ms"] for name, row in trace["rows"].items()
            if name != "bench.op"}
    raw = trace["metrics"]["bench.op_p50_raw_ms"]["value"]
    assert sum(rows.values()) == pytest.approx(raw, rel=0.10)
    assert trace["metrics"]["bench.layer_sum_frac"]["value"] \
        == pytest.approx(sum(rows.values()) / raw)
    # spans of one op share its id, and only odd ops are traced
    assert {span[4] for span in trace["spans"]} == {1, 3}
    assert all(span[3] < index for index, span in enumerate(trace["spans"]))


def test_each_workload_enters_the_layers_it_is_meant_to(tiny_suite):
    def nonzero(workload):
        metrics = tiny_suite["files"][f"trace-{workload}"]["metrics"]
        return {name.rsplit(".", 1)[0] for name, m in metrics.items()
                if m["value"] != 0 and not name.startswith(("bench", "eval"))}
    assert nonzero("pipeline-9k") >= {
        "data.sampling", "models", "graph", "losses", "tensor", "nn.optim",
        "train", "serve.snapshot", "ann", "serve.index"}
    assert nonzero("train-sparse-100k") == {
        "data.sampling", "data.source", "models", "losses", "tensor",
        "nn.optim", "train"}
    assert nonzero("serve-batch-100k") == {
        "serve.snapshot", "serve.shard", "serve.router", "serve.service"}
    assert nonzero("serve-online-100k") == nonzero("serve-batch-100k") | {
        "serve.runtime"}
    online = tiny_suite["files"]["trace-serve-online-100k"]["metrics"]
    assert 0.0 < online["serve.service.cache_hit_frac"]["value"] < 1.0
    assert online["serve.runtime.shed_frac"]["value"] == 0.0


def test_seed_changes_the_inputs_and_nothing_else(tiny_suite, tmp_path):
    def run(seed, tag):
        work, results = tmp_path / f"work-{tag}", tmp_path / f"results-{tag}"
        proc = run_bench("--workload", "serve-batch-100k", "--tiny", "--seed",
                         str(seed), "--work-dir", str(work), "--results-dir",
                         str(results))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        (inputs,) = work.glob("scale-*")
        return line, _digest(inputs), inputs.name

    again, digest_again, _ = run(0, "again")
    other, digest_other, name_other = run(1, "other")
    (first,) = tiny_suite["work"].glob("scale-tiny-seed0")
    assert _digest(first) == digest_again != digest_other
    assert name_other == "scale-tiny-seed1"
    assert set(again) == set(other) == {"correct", "attempted", "failed",
                                        "metrics"}
    assert again["attempted"] == other["attempted"]
    assert again["correct"] and other["correct"]
    assert set(again["metrics"]) == set(other["metrics"])
    # nothing was written next to the benchmark's own files
    assert not (tmp_path / "bench").exists()
