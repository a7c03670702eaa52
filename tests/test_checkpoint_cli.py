"""Checkpointing and the CLI."""

import numpy as np
import pytest

from repro import cli
from repro.models import MF, LightGCN
from repro.train.checkpoint import load_checkpoint, save_checkpoint


class TestCheckpoint:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        clone = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=99)
        assert not np.allclose(clone.user_embedding.weight.data,
                               model.user_embedding.weight.data)
        load_checkpoint(clone, path)
        np.testing.assert_array_equal(clone.user_embedding.weight.data,
                                      model.user_embedding.weight.data)
        np.testing.assert_array_equal(clone.scoring_tables().scores(),
                                      model.scoring_tables().scores())

    def test_class_mismatch_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = LightGCN(tiny_dataset, dim=8, rng=0)
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    def test_size_mismatch_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        smaller = MF(tiny_dataset.num_users - 1, tiny_dataset.num_items,
                     dim=8, rng=0)
        with pytest.raises(ValueError):
            load_checkpoint(smaller, path)


class TestCli:
    def test_datasets_command(self, capsys):
        assert cli.main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "yelp2018-small" in out
        assert "density" in out

    def test_train_command(self, capsys):
        rc = cli.main(["train", "--dataset", "tiny", "--model", "mf",
                       "--loss", "sl", "--epochs", "2", "--dim", "8",
                       "--negatives", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ndcg@20" in out

    def test_sweep_tau_command(self, capsys):
        rc = cli.main(["sweep-tau", "--dataset", "tiny", "--epochs", "2",
                       "--taus", "0.2,0.4"])
        assert rc == 0
        assert "best tau" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["train", "--dataset", "netflix"])
