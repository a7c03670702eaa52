"""The ``repro export`` / ``repro recommend`` / ``repro refresh`` CLI."""

import json

import numpy as np
import pytest

from repro import cli
from repro.serve import load_snapshot


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Snapshot directory produced by the real `repro export` verb."""
    out = tmp_path_factory.mktemp("cli_snapshot") / "snap"
    rc = cli.main(["export", "--dataset", "tiny", "--model", "mf",
                   "--loss", "sl", "--epochs", "2", "--dim", "8",
                   "--negatives", "8", "--out", str(out)])
    assert rc == 0
    return out


class TestExport:
    def test_writes_manifest_and_arrays(self, exported):
        manifest = json.loads((exported / "shards.json").read_text())
        assert manifest["schema"] == "bsl-serve-sharded/v1"
        assert manifest["model"] == "mf"
        assert manifest["extra"]["loss"] == "sl"
        for fname in ("user-shard-00/user_embeddings.npy",
                      "item-shard-00/item_embeddings.npy",
                      "user-shard-00/seen_indptr.npy",
                      "user-shard-00/seen_items.npy"):
            assert (exported / fname).is_file()

    def test_prints_version(self, exported, capsys):
        cli.main(["recommend", "--snapshot", str(exported), "--users", "0"])
        out = capsys.readouterr().out
        manifest = json.loads((exported / "shards.json").read_text())
        assert manifest["version"] in out

    def test_export_from_checkpoint(self, tiny_dataset, tmp_path):
        from repro.models import MF
        from repro.train.checkpoint import save_checkpoint

        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        ckpt = tmp_path / "model.npz"
        save_checkpoint(model, ckpt)
        out = tmp_path / "snap"
        rc = cli.main(["export", "--dataset", "tiny", "--model", "mf",
                       "--dim", "8", "--checkpoint", str(ckpt),
                       "--out", str(out)])
        assert rc == 0
        snapshot = load_snapshot(out, verify=True)
        users, items = model.embeddings()
        np.testing.assert_array_equal(np.asarray(snapshot.users), users)
        np.testing.assert_array_equal(np.asarray(snapshot.items), items)


class TestRecommend:
    def test_round_trip(self, exported, capsys):
        rc = cli.main(["recommend", "--snapshot", str(exported),
                       "--users", "0,1,2", "--k", "5", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top-5" in out
        # three user rows with five items each
        data_lines = [l for l in out.splitlines()
                      if l and l.split()[0] in {"0", "1", "2"}]
        assert len(data_lines) == 3

    def test_matches_service_results(self, exported, capsys):
        from repro.serve import RecommendationService

        cli.main(["recommend", "--snapshot", str(exported), "--users", "7",
                  "--k", "4"])
        out = capsys.readouterr().out
        service = RecommendationService(load_snapshot(exported))
        expected = service.recommend_one(7, k=4).items.tolist()
        row = next(l for l in out.splitlines() if l.startswith("7"))
        shown = [int(t) for t in row.split("|")[1].split()]
        assert shown == expected

    def test_missing_snapshot_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.main(["recommend", "--snapshot", str(tmp_path / "nope")])

    def test_ann_on_sharded_snapshot_is_a_usage_error(self, exported,
                                                      tmp_path, capsys):
        """The IVF index reads whole tables, which only the 1×1 set has:
        it cannot be built over a sharded snapshot, and one built from
        another snapshot is refused by version."""
        sharded = tmp_path / "sharded"
        ann = tmp_path / "ann"
        assert cli.main(["export", "--dataset", "tiny", "--model", "mf",
                         "--epochs", "1", "--dim", "8", "--shards", "2",
                         "--out", str(sharded)]) == 0
        with pytest.raises(ValueError, match="2 user shards x 2 item shards"):
            cli.main(["build-ann", "--snapshot", str(sharded),
                      "--nlist", "4", "--out", str(ann)])
        assert cli.main(["build-ann", "--snapshot", str(exported),
                         "--nlist", "4", "--out", str(ann)]) == 0
        with pytest.raises(ValueError, match="ANN index was built from"):
            cli.main(["recommend", "--snapshot", str(sharded),
                      "--ann", str(ann)])


class TestRefresh:
    """``repro refresh`` swaps a re-exported snapshot in mid-stream."""

    @staticmethod
    def _served(out: str) -> dict[str, int]:
        """``{version: responses}`` from the ``served by`` table rows."""
        served = {}
        for line in out.splitlines():
            if line.startswith("served by "):
                version, count = line[len("served by "):].split("|")
                served[version.strip()] = int(count)
        return served

    def test_swaps_to_new_snapshot_mid_stream(self, tiny_mf_snapshot,
                                              tiny_mf_snapshot_next, capsys):
        _, base = tiny_mf_snapshot
        _, new = tiny_mf_snapshot_next
        rc = cli.main(["refresh", "--snapshot", str(base.path),
                       "--new", str(new.path), "--requests", "32",
                       "--qps", "2000", "--verify"])
        assert rc == 0
        served = self._served(capsys.readouterr().out)
        assert set(served) <= {base.version, new.version}
        assert new.version in served
        assert sum(served.values()) == 32

    def test_corrupted_new_is_rejected_and_base_keeps_serving(
            self, tiny_mf_snapshot, tiny_mf_snapshot_next, tmp_path,
            capsys):
        import shutil

        from repro.serve import corrupt_array_file
        _, base = tiny_mf_snapshot
        _, new = tiny_mf_snapshot_next
        damaged = tmp_path / "new"
        shutil.copytree(new.path, damaged)
        corrupt_array_file(damaged / "item-shard-00" / "item_embeddings.npy")
        rc = cli.main(["refresh", "--snapshot", str(base.path),
                       "--new", str(damaged), "--requests", "32",
                       "--qps", "2000"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "refresh rejected" in out
        assert self._served(out) == {base.version: 32}
        assert not damaged.exists()  # quarantined aside

    def test_sharded_base_refreshes_from_sharded_reexport(
            self, tiny_dataset, tiny_mf_snapshot, tiny_mf_snapshot_next,
            tmp_path, capsys):
        """The base may be any shard set: a 2-shard base swaps to a
        2-shard re-export, and every response names one of the two."""
        from repro.serve import export_sharded_snapshot
        model_a, _ = tiny_mf_snapshot
        model_b, _ = tiny_mf_snapshot_next
        base = export_sharded_snapshot(model_a, tiny_dataset, tmp_path / "a",
                                       shards=2)
        new = export_sharded_snapshot(model_b, tiny_dataset, tmp_path / "b",
                                      shards=2)
        rc = cli.main(["refresh", "--snapshot", str(base.path),
                       "--new", str(new.path), "--requests", "32",
                       "--qps", "2000", "--verify"])
        assert rc == 0
        served = self._served(capsys.readouterr().out)
        assert set(served) <= {base.version, new.version}
        assert new.version in served
        assert sum(served.values()) == 32
