"""InteractionSource protocol: in-memory dataset == sharded mmap source.

The sampler and trainer talk to datasets only through the
:class:`~repro.data.source.InteractionSource` protocol, so these tests
pin the contract that makes out-of-core training exact: the mmap-backed
:class:`~repro.data.source.ShardedInteractionSource` must agree with
the in-memory :class:`~repro.data.dataset.InteractionDataset` on every
protocol method, byte for byte.
"""

import json

import numpy as np
import pytest

from repro.data import (InteractionDataset, InteractionShardWriter,
                        ScaleConfig, as_source, batch_contains,
                        generate_scale_shards, load_dataset,
                        write_interaction_shards)
from repro.data.source import ShardedInteractionSource
from tests.oracles import positive_mask


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("yelp2018-small")


@pytest.fixture(scope="module")
def sources(dataset, tmp_path_factory):
    shard_dir = tmp_path_factory.mktemp("shards") / "yelp"
    sharded = write_interaction_shards(dataset, shard_dir, block_rows=1024)
    return dataset, sharded


class TestProtocolParity:
    """Every protocol surface agrees across the two backends."""

    def test_sizes(self, sources):
        memory, sharded = sources
        assert (memory.num_users, memory.num_items, memory.num_train) == \
            (sharded.num_users, sharded.num_items, sharded.num_train)

    def test_pairs_gather(self, sources):
        memory, sharded = sources
        rng = np.random.default_rng(0)
        idx = rng.permutation(memory.num_train)[:2048]
        np.testing.assert_array_equal(memory.pairs(idx), sharded.pairs(idx))

    def test_user_degrees(self, sources):
        memory, sharded = sources
        np.testing.assert_array_equal(memory.user_degrees(),
                                      sharded.user_degrees())

    def test_item_popularity(self, sources):
        memory, sharded = sources
        np.testing.assert_allclose(memory.item_popularity,
                                   sharded.item_popularity)

    def test_full_csr(self, sources):
        memory, sharded = sources
        di, dv = memory.train_csr()
        si, sv = sharded.train_csr()
        np.testing.assert_array_equal(di, si)
        np.testing.assert_array_equal(np.sort(dv), np.sort(sv))

    def test_row_range_csr_rebased(self, sources):
        memory, sharded = sources
        lo, hi = 17, 83
        di, dv = memory.train_csr(lo, hi)
        si, sv = sharded.train_csr(lo, hi)
        assert di[0] == 0 and si[0] == 0
        np.testing.assert_array_equal(di, si)
        np.testing.assert_array_equal(np.sort(dv), np.sort(sv))

    def test_batch_sorted_positives(self, sources):
        memory, sharded = sources
        users = np.array([0, 5, 5, 101, 449])
        dp, dd = memory.batch_sorted_positives(users)
        sp, sd = sharded.batch_sorted_positives(users)
        np.testing.assert_array_equal(dd, sd)
        for d, s, deg in zip(dp, sp, dd):
            np.testing.assert_array_equal(d[:deg], s[:deg])
            # padding may differ in width across backends but must sit
            # strictly above the item-id range in both
            assert np.all(d[deg:] > memory.num_items)
            assert np.all(s[deg:] > memory.num_items)

    def test_batch_padded_positives(self, sources):
        memory, sharded = sources
        users = np.arange(0, 400, 7)
        dp, dd = memory.batch_padded_positives(users)
        sp, sd = sharded.batch_padded_positives(users)
        np.testing.assert_array_equal(dd, sd)
        for row, (d, s, deg) in enumerate(zip(dp, sp, dd)):
            np.testing.assert_array_equal(d[:deg], s[:deg]), row

    def test_iter_pair_indices_covers_everything(self, sources):
        _, sharded = sources
        blocks = list(sharded.iter_pair_indices(block_rows=997))
        flat = np.concatenate(blocks)
        np.testing.assert_array_equal(
            flat, np.arange(sharded.num_train, dtype=np.int64))


class TestBatchContains:
    """Row-offset searchsorted membership == dense mask gather."""

    def test_matches_dense_mask(self, dataset, sources):
        memory, _ = sources
        rng = np.random.default_rng(3)
        users = rng.integers(0, memory.num_users, size=256)
        queries = rng.integers(0, memory.num_items, size=(256, 16))
        padded, _ = memory.batch_sorted_positives(users)
        got = batch_contains(padded, queries)
        want = positive_mask(dataset)[users[:, None], queries]
        np.testing.assert_array_equal(got, want)

    def test_empty_queries(self, sources):
        memory, _ = sources
        padded, _ = memory.batch_sorted_positives(np.array([0, 1]))
        out = batch_contains(padded, np.empty((2, 0), dtype=np.int64))
        assert out.shape == (2, 0)


class TestAsSource:
    def test_passthrough(self, dataset, sources):
        _, sharded = sources
        assert as_source(sharded) is sharded
        assert as_source(dataset) is dataset

    def test_path_opens_sharded(self, sources, tmp_path, dataset):
        shard_dir = tmp_path / "again"
        write_interaction_shards(dataset, shard_dir)
        opened = as_source(shard_dir)
        assert isinstance(opened, ShardedInteractionSource)
        assert opened.num_train == dataset.num_train

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_source(42)


class TestShardWriter:
    def test_requires_sorted_users(self, tmp_path):
        writer = InteractionShardWriter(
            tmp_path / "w", name="t", num_users=4, num_items=4, num_train=3)
        writer.append(np.array([1, 1]), np.array([0, 2]))
        with pytest.raises(ValueError):
            writer.append(np.array([0]), np.array([1]))  # ids went backwards

    def test_rejects_out_of_range_items(self, tmp_path):
        writer = InteractionShardWriter(
            tmp_path / "w", name="t", num_users=4, num_items=4, num_train=1)
        with pytest.raises(ValueError):
            writer.append(np.array([0]), np.array([9]))

    def test_rejects_wrong_total(self, tmp_path):
        writer = InteractionShardWriter(
            tmp_path / "w", name="t", num_users=4, num_items=4, num_train=5)
        writer.append(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            writer.close()

    def test_roundtrip_multiblock(self, tmp_path):
        rng = np.random.default_rng(11)
        users = np.sort(rng.integers(0, 50, size=333))
        items = rng.integers(0, 40, size=333).astype(np.int64)
        pairs = np.stack([users, items], axis=1).astype(np.int64)
        writer = InteractionShardWriter(
            tmp_path / "w", name="t", num_users=50, num_items=40,
            num_train=333, block_rows=64)
        for lo in range(0, 333, 50):
            writer.append(users[lo:lo + 50], items[lo:lo + 50])
        source = ShardedInteractionSource(writer.close())
        assert len(source.manifest["pair_blocks"]) > 1
        np.testing.assert_array_equal(source.pairs(np.arange(333)), pairs)
        np.testing.assert_array_equal(
            source.user_degrees(), np.bincount(users, minlength=50))

    def test_length_mismatch_changes_nothing(self, tmp_path):
        writer = InteractionShardWriter(
            tmp_path / "w", name="t", num_users=4, num_items=4, num_train=3)
        with pytest.raises(ValueError, match="equal length"):
            writer.append(np.array([0, 1]), np.array([2]))
        writer.append(np.array([0, 1, 1]), np.array([2, 0, 3]))
        source = ShardedInteractionSource(writer.close())
        np.testing.assert_array_equal(source.pairs(np.arange(3)),
                                      [[0, 2], [1, 0], [1, 3]])
        np.testing.assert_array_equal(source.user_degrees(), [1, 2, 0, 0])
        np.testing.assert_array_equal(source.item_popularity, [1, 0, 1, 1])

    def test_writer_matches_dataset_export(self, tmp_path):
        """User-sorted pairs: streamed and converted directories agree
        byte for byte, manifests up to their timestamps."""
        rng = np.random.default_rng(5)
        users = np.sort(rng.integers(0, 30, size=200))
        items = rng.integers(0, 25, size=200)
        test = np.array([[0, 1], [7, 3]])
        dataset = InteractionDataset(30, 25, np.column_stack([users, items]),
                                     test, name="t")
        write_interaction_shards(dataset, tmp_path / "a", block_rows=64)
        writer = InteractionShardWriter(
            tmp_path / "b", name="t", num_users=30, num_items=25,
            num_train=200, block_rows=64)
        for lo in range(0, 200, 45):
            writer.append(users[lo:lo + 45], items[lo:lo + 45])
        writer.close(test)
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        manifests = []
        for name in files:
            a, b = ((tmp_path / d / name).read_bytes() for d in "ab")
            if name.endswith(".json"):
                manifests.append((json.loads(a), json.loads(b)))
            else:
                assert a == b, name
        (ma, mb), = manifests
        del ma["created_unix"], mb["created_unix"]
        assert ma == mb


class TestOpenChecks:
    """A shard directory whose arrays disagree with its manifest fails
    when it is opened, not at the first out-of-bounds gather."""

    @staticmethod
    def _write(path, num_users=20, num_items=15, seed=0):
        rng = np.random.default_rng(seed)
        pairs = np.column_stack([rng.integers(0, num_users, 60),
                                 rng.integers(0, num_items, 60)])
        dataset = InteractionDataset(num_users, num_items, pairs,
                                     np.array([[0, 1]]))
        return write_interaction_shards(dataset, path, block_rows=16).path

    def test_foreign_indptr(self, tmp_path):
        path = self._write(tmp_path / "a")
        other = self._write(tmp_path / "b", num_users=25)
        (path / "indptr.npy").write_bytes(
            (other / "indptr.npy").read_bytes())
        with pytest.raises(ValueError, match="indptr"):
            ShardedInteractionSource(path)

    @pytest.mark.parametrize("stem", ["indptr", "csr_items", "item_degrees"])
    def test_too_few_rows(self, tmp_path, stem):
        path = self._write(tmp_path / "a")
        np.save(path / f"{stem}.npy", np.load(path / f"{stem}.npy")[:-1])
        with pytest.raises(ValueError, match=stem):
            ShardedInteractionSource(path)

    def test_indptr_not_spanning_or_monotone(self, tmp_path):
        path = self._write(tmp_path / "a")
        indptr = np.load(path / "indptr.npy")
        np.save(path / "indptr.npy", indptr + 1)
        with pytest.raises(ValueError, match="spans"):
            ShardedInteractionSource(path)
        bumped = indptr.copy()
        bumped[3] = indptr[4] + 1  # row 3 now ends before it starts
        np.save(path / "indptr.npy", bumped)
        with pytest.raises(ValueError, match="monotone"):
            ShardedInteractionSource(path)

    def test_test_pairs_shape(self, tmp_path):
        path = self._write(tmp_path / "a")
        np.save(path / "test_pairs.npy", np.arange(4))
        with pytest.raises(ValueError, match="test_pairs"):
            ShardedInteractionSource(path)


class TestScaleGenerator:
    def test_tiny_generation_roundtrip(self, tmp_path):
        cfg = ScaleConfig(num_users=300, num_items=200, num_clusters=8,
                          mean_interactions=5.0, users_per_chunk=64,
                          block_rows=256, seed=7, name="tiny")
        source = generate_scale_shards(cfg, tmp_path / "tiny")
        assert source.num_users == 300 and source.num_items == 200
        pairs = source.pairs(np.arange(source.num_train))
        # users ascend (pair blocks double as the CSR grouping)
        assert np.all(np.diff(pairs[:, 0]) >= 0)
        assert pairs[:, 1].min() >= 0 and pairs[:, 1].max() < 200
        np.testing.assert_array_equal(
            source.user_degrees(),
            np.bincount(pairs[:, 0], minlength=300))
        indptr, items = source.train_csr()
        np.testing.assert_array_equal(items, pairs[:, 1])
        assert indptr[-1] == source.num_train

    def test_determinism(self, tmp_path):
        cfg = ScaleConfig(num_users=120, num_items=90, num_clusters=4,
                          mean_interactions=4.0, users_per_chunk=32,
                          seed=9, name="det")
        a = generate_scale_shards(cfg, tmp_path / "a")
        b = generate_scale_shards(cfg, tmp_path / "b")
        assert a.num_train == b.num_train
        idx = np.arange(a.num_train)
        np.testing.assert_array_equal(a.pairs(idx), b.pairs(idx))

    def test_popularity_is_skewed(self, tmp_path):
        cfg = ScaleConfig(num_users=400, num_items=300, num_clusters=8,
                          mean_interactions=8.0, users_per_chunk=128,
                          seed=3, name="skew")
        source = generate_scale_shards(cfg, tmp_path / "skew")
        counts = np.sort(np.bincount(
            source.pairs(np.arange(source.num_train))[:, 1],
            minlength=300))[::-1]
        top_share = counts[:30].sum() / counts.sum()
        assert top_share > 0.2  # power-law head far above uniform (10%)
