"""Out-of-core training/export byte-parity against the in-memory path.

The safety contract of the million-scale engine: routing data through
mmap shards and mmap parameter tables must change **nothing** about the
numbers.  These tests pin the three links of that chain —

* chunked mmap Xavier init, cast to float32 == one-shot
  ``MF(rng=seed)`` init (the files keep float64, the format the
  out-of-core path trains in; models built in memory are float32),
* a streamed epoch over a :class:`ShardedInteractionSource` into an
  mmap-backed model == the same epoch in memory over copies of the same
  float64 tables (parameter bytes, loss histories, and the on-disk
  table bytes after ``flush_model``),
* a sharded export straight from mmap tables + source ==
  ``export_sharded_snapshot`` of the equivalent dense model/dataset,
  file for file.
"""

import pathlib

import numpy as np
import pytest

from repro.data import load_dataset, write_interaction_shards
from repro.data.source import ShardedInteractionSource
from repro.losses import get_loss
from repro.models import MF
from repro.serve import export_sharded_snapshot, export_sharded_source_snapshot
from repro.train import (TrainConfig, Trainer, flush_model,
                         init_mmap_mf_tables, open_mmap_mf)
from repro.train.outofcore import ITEM_TABLE, USER_TABLE


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("yelp2018-small")


@pytest.fixture(scope="module")
def shard_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ooc") / "shards"
    write_interaction_shards(dataset, out, block_rows=2048)
    return out


def _train_config(**overrides):
    base = dict(epochs=2, batch_size=512, learning_rate=5e-3,
                n_negatives=8, grad_mode="sparse", seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def _table_bytes(model):
    return (np.asarray(model.user_embedding.weight.data).tobytes(),
            np.asarray(model.item_embedding.weight.data).tobytes())


class TestMmapInitParity:
    def test_chunked_init_matches_one_shot(self, tmp_path):
        table_dir = init_mmap_mf_tables(tmp_path / "t", 257, 181, 12,
                                        rng=42, chunk_rows=50)
        reference = MF(257, 181, 12, rng=42)
        mmapped = open_mmap_mf(table_dir, mode="r")
        for name in ("user_embedding", "item_embedding"):
            on_disk = getattr(mmapped, name).weight.data
            assert on_disk.dtype == np.float64
            assert (on_disk.astype(np.float32).tobytes()
                    == getattr(reference, name).weight.data.tobytes())

    def test_chunk_size_is_irrelevant(self, tmp_path):
        a = open_mmap_mf(init_mmap_mf_tables(tmp_path / "a", 100, 90, 8,
                                             rng=7, chunk_rows=13), mode="r")
        b = open_mmap_mf(init_mmap_mf_tables(tmp_path / "b", 100, 90, 8,
                                             rng=7, chunk_rows=1000), mode="r")
        assert _table_bytes(a) == _table_bytes(b)


class TestStreamedTrainingParity:
    def _run_in_memory(self, dataset, cfg, tmp_path):
        """The same epoch over in-memory copies of the float64 tables
        :func:`init_mmap_mf_tables` writes."""
        table_dir = init_mmap_mf_tables(tmp_path / "memory",
                                        dataset.num_users, dataset.num_items,
                                        16, rng=5)
        tables = tuple(np.load(table_dir / name)
                       for name in (USER_TABLE, ITEM_TABLE))
        model = MF(dataset.num_users, dataset.num_items, 16, tables=tables)
        return Trainer(model, get_loss("bsl", tau1=0.2, tau2=0.1),
                       dataset, cfg).fit()

    def _run_out_of_core(self, shard_dir, cfg, tmp_path):
        source = ShardedInteractionSource(shard_dir)
        table_dir = init_mmap_mf_tables(tmp_path / "tables",
                                        source.num_users, source.num_items,
                                        16, rng=5)
        model = open_mmap_mf(table_dir)
        result = Trainer(model, get_loss("bsl", tau1=0.2, tau2=0.1),
                         source, cfg).fit()
        flush_model(model)
        return result, table_dir

    def test_streamed_epoch_is_bit_identical(self, dataset, shard_dir,
                                             tmp_path):
        cfg = _train_config()
        dense = self._run_in_memory(dataset, cfg, tmp_path)
        streamed, table_dir = self._run_out_of_core(shard_dir, cfg, tmp_path)
        assert streamed.loss_history == dense.loss_history
        assert _table_bytes(streamed.model) == _table_bytes(dense.model)
        # ... and the bytes actually on disk agree too (flush_model worked)
        want_users, want_items = _table_bytes(dense.model)
        disk_users = np.load(table_dir / USER_TABLE)
        disk_items = np.load(table_dir / ITEM_TABLE)
        assert disk_users.tobytes() == want_users
        assert disk_items.tobytes() == want_items

    def test_rnoise_parity(self, dataset, shard_dir, tmp_path):
        cfg = _train_config(epochs=1, rnoise=0.1)
        dense = self._run_in_memory(dataset, cfg, tmp_path)
        streamed, _ = self._run_out_of_core(shard_dir, cfg, tmp_path)
        assert streamed.loss_history == dense.loss_history
        assert _table_bytes(streamed.model) == _table_bytes(dense.model)


def _tree_bytes(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestExportParity:
    @pytest.fixture(scope="class")
    def trained(self, dataset):
        model = MF(dataset.num_users, dataset.num_items, 8, rng=3)
        Trainer(model, get_loss("bsl", tau1=0.2, tau2=0.1), dataset,
                _train_config(epochs=1)).fit()
        return model

    @pytest.mark.parametrize("partition_by,strategy", [
        ("both", "contiguous"),
        ("both", "hash"),
        ("user", "contiguous"),
    ])
    def test_source_export_matches_dense_export(self, dataset, shard_dir,
                                                trained, tmp_path,
                                                partition_by, strategy):
        dense_dir = tmp_path / "dense"
        ooc_dir = tmp_path / "ooc"
        export_sharded_snapshot(trained, dataset, dense_dir, shards=3,
                                partition_by=partition_by, strategy=strategy,
                                created_unix=1_700_000_000.0)
        export_sharded_source_snapshot(
            np.asarray(trained.user_embedding.weight.data),
            np.asarray(trained.item_embedding.weight.data),
            ShardedInteractionSource(shard_dir), ooc_dir, shards=3,
            partition_by=partition_by, strategy=strategy,
            created_unix=1_700_000_000.0)
        dense_files = _tree_bytes(dense_dir)
        ooc_files = _tree_bytes(ooc_dir)
        assert sorted(dense_files) == sorted(ooc_files)
        for name in dense_files:
            assert dense_files[name] == ooc_files[name], name

    def test_size_mismatch_rejected(self, shard_dir, tmp_path):
        source = ShardedInteractionSource(shard_dir)
        with pytest.raises(ValueError):
            export_sharded_source_snapshot(
                np.zeros((3, 4)), np.zeros((source.num_items, 4)),
                source, tmp_path / "bad", shards=2)
