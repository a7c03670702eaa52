"""Sharded serving: partition/round-trip semantics and bitwise parity.

The acceptance contract of the scatter-gather router: for every shard
count × partition axis × placement scheme, the sharded exact path
returns **bit-identical** items *and* scores to the unsharded
:class:`~repro.serve.index.ExactTopKIndex` — on the paper-shaped
``yelp2018-small`` preset, not just a toy.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import merge_partials_heap
from repro.data import load_dataset
from repro.losses import get_loss
from repro.models import get_model
from repro.serve import (ExactTopKIndex, RecommendationService,
                         ResilienceConfig, ShardedRecommendationService,
                         ShardedTopKIndex, ShardManifest, ShardedManifest,
                         export_sharded_snapshot, export_snapshot,
                         load_sharded_snapshot, partition_ids)
from repro.serve.index import ROW_BLOCK, PanelScorer, scoring_ready_users
from repro.serve.router import _merge_partials
from repro.serve.shard import ItemShard, ItemShardIndex
from repro.serve.snapshot import SHARD_SCHEMA
from repro.train import TrainConfig, train_model

SHARD_COUNTS = (1, 2, 3, 7)


def _shard_counts(path) -> tuple[int, int]:
    """``(user shards, item shards)`` named by a directory's shards.json."""
    manifest = json.loads((path / "shards.json").read_text())
    return manifest["num_user_shards"], manifest["num_item_shards"]
PARTITION_AXES = ("user", "item", "both")
STRATEGIES = ("contiguous", "hash")


@pytest.fixture(scope="module")
def tiny_cell(tiny_dataset, tmp_path_factory):
    """(model, dataset, unsharded snapshot) briefly trained on 'tiny'."""
    model = get_model("mf", tiny_dataset, dim=8, rng=0)
    config = TrainConfig(epochs=2, batch_size=64, n_negatives=8,
                         eval_every=0, patience=0, seed=0)
    train_model(model, get_loss("bsl"), tiny_dataset, config)
    out = tmp_path_factory.mktemp("tiny-flat")
    snapshot = export_snapshot(model, tiny_dataset, out, model_name="mf")
    return model, tiny_dataset, snapshot


@pytest.fixture(scope="module")
def yelp_cell(tmp_path_factory):
    """(model, dataset, unsharded snapshot) trained on yelp2018-small."""
    dataset = load_dataset("yelp2018-small")
    model = get_model("mf", dataset, dim=64, rng=0)
    config = TrainConfig(epochs=3, batch_size=1024, n_negatives=64,
                         eval_every=0, patience=0, seed=0)
    train_model(model, get_loss("bsl"), dataset, config)
    out = tmp_path_factory.mktemp("yelp-flat")
    snapshot = export_snapshot(model, dataset, out, model_name="mf")
    return model, dataset, snapshot


class TestPartitionIds:
    def test_contiguous_covers_in_order(self):
        parts = partition_ids(10, 3, "contiguous")
        assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5, 6],
                                              [7, 8, 9]]

    def test_hash_is_residue_classes(self):
        parts = partition_ids(10, 3, "hash")
        assert [p.tolist() for p in parts] == [[0, 3, 6, 9], [1, 4, 7],
                                              [2, 5, 8]]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_partition_invariants(self, num_shards, strategy):
        """Every shard ascending + non-empty; union == arange exactly."""
        parts = partition_ids(53, num_shards, strategy)
        assert len(parts) == num_shards
        for part in parts:
            assert len(part) > 0
            assert np.all(np.diff(part) > 0)
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(53))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="num_shards"):
            partition_ids(10, 0)
        with pytest.raises(ValueError, match="non-empty"):
            partition_ids(3, 5)
        with pytest.raises(ValueError, match="strategy"):
            partition_ids(10, 2, "range")


class TestExportLoadRoundTrip:
    def test_layout_and_manifests(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=3, partition_by="both",
                                          strategy="hash", model_name="mf")
        assert _shard_counts(tmp_path) == (3, 3)
        assert (tmp_path / "shards.json").is_file()
        manifest = sharded.manifest
        assert isinstance(manifest, ShardedManifest)
        assert manifest.num_user_shards == manifest.num_item_shards == 3
        assert manifest.strategy == "hash"
        assert len(manifest.version) == 16
        for entry in manifest.user_shards + manifest.item_shards:
            shard_dir = tmp_path / entry["path"]
            assert shard_dir.is_dir()
            child = ShardManifest.from_json(
                (shard_dir / "manifest.json").read_text())
            assert child.version == entry["version"]
            assert child.count == entry["count"]

    def test_partition_by_user_keeps_one_item_shard(self, tiny_cell,
                                                    tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=4, partition_by="user")
        assert sharded.manifest.num_user_shards == 4
        assert sharded.manifest.num_item_shards == 1

    def test_load_verify_detects_tamper(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        load_sharded_snapshot(tmp_path, verify=True)  # pristine passes
        target = tmp_path / "item-shard-01" / "item_embeddings.npy"
        table = np.load(target)
        table[0, 0] += 1.0
        np.save(target, table)
        with pytest.raises(ValueError, match="content hash mismatch"):
            load_sharded_snapshot(tmp_path, verify=True)

    def test_top_level_version_pins_children(self, tiny_cell, tmp_path):
        """Editing shards.json itself is caught by the top-level hash."""
        model, dataset, _ = tiny_cell
        export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        manifest_path = tmp_path / "shards.json"
        payload = json.loads(manifest_path.read_text())
        payload["version"] = "0" * 16
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="does not match"):
            load_sharded_snapshot(tmp_path, verify=True)

    def test_unknown_manifest_fields_rejected(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        manifest_path = tmp_path / "shards.json"
        payload = json.loads(manifest_path.read_text())
        payload["replicas"] = 2
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown fields"):
            load_sharded_snapshot(tmp_path)

    def test_unsharded_export_loads_as_1x1_set(self, tiny_cell):
        """`export_snapshot` writes the 1×1 shard set: the sharded loader
        opens it, and its version is the dense view's."""
        _, _, snapshot = tiny_cell
        sharded = load_sharded_snapshot(snapshot.path, verify=True)
        assert (sharded.manifest.num_user_shards,
                sharded.manifest.num_item_shards) == (1, 1)
        assert sharded.version == snapshot.version
        assert _shard_counts(snapshot.path) == (1, 1)

    def test_unsharded_export_is_the_one_shard_export(self, tiny_cell,
                                                      tmp_path):
        """One writer: `export_snapshot` and `shards=1` write the same
        bytes, file for file."""
        model, dataset, _ = tiny_cell
        export_snapshot(model, dataset, tmp_path / "a", model_name="mf",
                        created_unix=0.0)
        export_sharded_snapshot(model, dataset, tmp_path / "b", shards=1,
                                model_name="mf", created_unix=0.0)
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert [str(f) for f in files] == [
            "item-shard-00/item_embeddings.npy", "item-shard-00/item_ids.npy",
            "item-shard-00/manifest.json", "shards.json",
            "user-shard-00/manifest.json", "user-shard-00/seen_indptr.npy",
            "user-shard-00/seen_items.npy", "user-shard-00/user_embeddings.npy",
            "user-shard-00/user_ids.npy"]
        for f in files:
            assert ((tmp_path / "a" / f).read_bytes()
                    == (tmp_path / "b" / f).read_bytes())

    def test_load_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="shards.json"):
            load_sharded_snapshot(tmp_path)

    def test_dense_reads_refuse_a_multi_shard_set(self, tiny_cell, tmp_path):
        """Any set loads; only the 1×1 set reads as whole tables, so the
        dense reads and the single-table index refuse the others."""
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=3,
                                          partition_by="item")
        reads = [lambda: sharded.users, lambda: sharded.items,
                 lambda: sharded.seen_indptr, lambda: sharded.seen_items,
                 lambda: sharded.seen(0), lambda: ExactTopKIndex(sharded)]
        for read in reads:
            with pytest.raises(ValueError, match="1 user shards x 3 item "
                                                 "shards"):
                read()

    def test_export_rejects_bad_partition_by(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        with pytest.raises(ValueError, match="partition_by"):
            export_sharded_snapshot(model, dataset, tmp_path, shards=2,
                                    partition_by="rows")

    def test_unsharded_reexport_removes_sharded_layout(self, tiny_cell,
                                                       tmp_path):
        """Overwriting a sharded dir with a flat export must not leave a
        stale shards.json that `recommend` would route to."""
        model, dataset, _ = tiny_cell
        export_sharded_snapshot(model, dataset, tmp_path, shards=3)
        assert _shard_counts(tmp_path) == (3, 3)
        export_snapshot(model, dataset, tmp_path)
        assert _shard_counts(tmp_path) == (1, 1)
        assert sorted(p.name for p in tmp_path.glob("*-shard-*")) == [
            "item-shard-00", "user-shard-00"]
        from repro.serve import load_snapshot
        load_snapshot(tmp_path, verify=True)

    def test_sharded_reexport_removes_flat_layout(self, tiny_cell,
                                                  tmp_path):
        model, dataset, _ = tiny_cell
        export_snapshot(model, dataset, tmp_path)
        export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        assert _shard_counts(tmp_path) == (2, 2)
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "user_embeddings.npy").exists()
        load_sharded_snapshot(tmp_path, verify=True)

    def test_shrinking_shard_count_leaves_no_orphans(self, tiny_cell,
                                                     tmp_path):
        model, dataset, _ = tiny_cell
        export_sharded_snapshot(model, dataset, tmp_path, shards=5)
        export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        assert sorted(p.name for p in tmp_path.glob("*-shard-*")) == [
            "item-shard-00", "item-shard-01",
            "user-shard-00", "user-shard-01"]
        load_sharded_snapshot(tmp_path, verify=True)

    def test_routing_tables(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=3, strategy="hash")
        users = np.arange(dataset.num_users, dtype=np.int64)
        owner, local = sharded.route_users(users)
        assert np.array_equal(owner, users % 3)
        for u in (0, 1, 5, dataset.num_users - 1):
            shard = sharded.user_shards[owner[u]]
            assert shard.ids[local[u]] == u
        # gathered rows match the unsharded table bit for bit
        rows = sharded.gather_user_rows(users)
        flat_users = np.load(tiny_cell[2].path / "user-shard-00"
                             / "user_embeddings.npy")
        np.testing.assert_array_equal(rows, flat_users)

    def test_gather_seen_matches_dataset(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=2, strategy="hash")
        users = np.array([3, 0, 7], dtype=np.int64)
        indptr, seen = sharded.gather_seen(users)
        for row, u in enumerate(users):
            expected = np.asarray(dataset.train_items_by_user[u],
                                  dtype=np.int64)
            np.testing.assert_array_equal(seen[indptr[row]:indptr[row + 1]],
                                          expected)


class TestShardedParityTiny:
    """Exhaustive bitwise parity on 'tiny': all combos, seen on and off."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("partition_by", PARTITION_AXES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_exact_bitwise(self, tiny_cell, tmp_path, shards, partition_by,
                           strategy):
        model, dataset, snapshot = tiny_cell
        sharded = export_sharded_snapshot(
            model, dataset, tmp_path, shards=shards,
            partition_by=partition_by, strategy=strategy)
        users = np.arange(dataset.num_users, dtype=np.int64)
        reference = ExactTopKIndex(snapshot)
        router = ShardedTopKIndex(sharded)
        for filter_seen in (True, False):
            want = reference.topk(users, k=10, filter_seen=filter_seen)
            got = router.topk(users, k=10, filter_seen=filter_seen)
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.scores, want.scores)

    @pytest.mark.parametrize("model_name", ["lightgcn", "simplex", "cml"])
    def test_exact_bitwise_across_scorings(self, tiny_dataset, tmp_path,
                                           model_name):
        """inner / cosine / euclidean scoring all survive sharding."""
        model = get_model(model_name, tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path / "flat")
        sharded = export_sharded_snapshot(model, tiny_dataset,
                                          tmp_path / "sharded", shards=3,
                                          strategy="hash")
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        want = ExactTopKIndex(snapshot).topk(users, k=10)
        got = ShardedTopKIndex(sharded).topk(users, k=10)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_k_exceeding_shard_size(self, tiny_cell, tmp_path):
        """k larger than any single shard still merges the full ranking."""
        model, dataset, snapshot = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=7)
        users = np.arange(8, dtype=np.int64)
        k = dataset.num_items  # every shard holds far fewer items
        want = ExactTopKIndex(snapshot).topk(users, k=k, filter_seen=False)
        got = ShardedTopKIndex(sharded).topk(users, k=k, filter_seen=False)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)


class TestShardedParityYelp:
    """Acceptance: bit-identical rankings on yelp2018-small, every
    ``--shards`` ∈ {1, 2, 3, 7} × ``--partition-by`` combination."""

    @pytest.mark.parametrize("partition_by", PARTITION_AXES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_exact_bitwise(self, yelp_cell, tmp_path, shards, partition_by):
        model, dataset, snapshot = yelp_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=shards,
                                          partition_by=partition_by)
        users = np.arange(dataset.num_users, dtype=np.int64)
        want = ExactTopKIndex(snapshot).topk(users, k=10)
        got = ShardedTopKIndex(sharded).topk(users, k=10)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_hash_strategy_bitwise(self, yelp_cell, tmp_path):
        model, dataset, snapshot = yelp_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=3, strategy="hash")
        users = np.arange(dataset.num_users, dtype=np.int64)
        want = ExactTopKIndex(snapshot).topk(users, k=10)
        got = ShardedTopKIndex(sharded).topk(users, k=10)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)


class TestShardedService:
    def test_matches_unsharded_service(self, tiny_cell, tmp_path):
        model, dataset, snapshot = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=3)
        service = ShardedRecommendationService(sharded)
        flat = RecommendationService(snapshot)
        users = np.arange(dataset.num_users, dtype=np.int64)
        for mine, theirs in zip(service.recommend(users, k=10),
                                flat.recommend(users, k=10)):
            assert mine.user_id == theirs.user_id
            np.testing.assert_array_equal(mine.items, theirs.items)
            np.testing.assert_array_equal(mine.scores, theirs.scores)

    def test_cache_keyed_on_sharded_version(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        service = ShardedRecommendationService(sharded)
        first = service.recommend_one(3, k=5)
        again = service.recommend_one(3, k=5)
        assert not first.from_cache and again.from_cache
        assert again.snapshot_version == sharded.version
        np.testing.assert_array_equal(first.items, again.items)

    def test_router_stats_accumulate(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=3)
        service = ShardedRecommendationService(sharded, cache_size=0)
        service.recommend(np.arange(20), k=5)
        stats = service.router_stats
        assert stats.sweeps >= 1 and stats.users_routed >= 20
        assert stats.score_s > 0 and stats.merge_s > 0

    def test_input_validation(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        router = ShardedTopKIndex(sharded)
        with pytest.raises(ValueError, match="k must be positive"):
            router.topk([0], k=0)
        with pytest.raises(ValueError, match="user ids"):
            router.topk([dataset.num_users], k=5)
        with pytest.raises(ValueError, match="chunk_users"):
            ShardedTopKIndex(sharded, chunk_users=0)

    def test_kind_tags(self, tiny_cell, tmp_path):
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path, shards=2)
        assert ShardedTopKIndex(sharded).kind == "exact"


class TestShardedRefresh:
    """A sharded service refreshes from a re-exported ``ShardedSnapshot``
    through ``ShardedTopKIndex.refreshed``, keeping the router's knobs."""

    @pytest.mark.parametrize("via", ["snapshot", "refresh_from_path"])
    def test_refresh_keeps_router_and_matches_fresh_service(
            self, via, tiny_dataset, tiny_mf_snapshot, tiny_mf_snapshot_next,
            tmp_path):
        model_a, _ = tiny_mf_snapshot
        model_b, _ = tiny_mf_snapshot_next
        snap_a = export_sharded_snapshot(model_a, tiny_dataset,
                                         tmp_path / "a", shards=3)
        snap_b = export_sharded_snapshot(model_b, tiny_dataset,
                                         tmp_path / "b", shards=3)
        resilience = ResilienceConfig(deadline_ms=5000.0, strict=True)
        service = RecommendationService(snap_a, cache_size=256, max_batch=16,
                                        workers=2, resilience=resilience)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        service.recommend(users, k=5)
        old_router = service.index
        if via == "snapshot":
            invalidated = service.refresh(snap_b)
        else:
            invalidated = service.refresh_from_path(tmp_path / "b")
        router = service.index
        try:
            assert invalidated == len(users)
            assert router is not old_router
            assert isinstance(router, ShardedTopKIndex)
            assert router.snapshot.version == snap_b.version
            assert (router.workers, router.chunk_users,
                    router.resilience) == (2, 16, resilience)
            assert all(key[0] == snap_b.version for key in service.cache._data)
            fresh = RecommendationService(snap_b, cache_size=0, max_batch=16)
            for got, want in zip(service.recommend(users, k=5),
                                 fresh.recommend(users, k=5)):
                assert got.snapshot_version == snap_b.version
                assert not got.from_cache and not got.degraded
                np.testing.assert_array_equal(got.items, want.items)
                np.testing.assert_array_equal(got.scores, want.scores)
            assert all(key[0] == snap_b.version for key in service.cache._data)
            stats = service.stats
            assert stats.cache_hits + stats.cache_misses == stats.users_served
        finally:
            old_router.close()
            router.close()

    def test_refresh_across_shard_counts(self, tiny_dataset,
                                         tiny_mf_snapshot,
                                         tiny_mf_snapshot_next, tmp_path):
        """A service over the 1×1 set refreshes to a 3-shard export of the
        next model and back.  Each time it answers like a fresh service,
        ``ExactTopKIndex`` over that model's 1×1 set and the router, bit
        for bit, and evicts the retired version's entries."""
        model_b, flat_b = tiny_mf_snapshot_next
        _, flat_a = tiny_mf_snapshot
        sharded_b = export_sharded_snapshot(model_b, tiny_dataset,
                                            tmp_path / "b", shards=3)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        service = RecommendationService(flat_a, cache_size=256)
        service.recommend(users, k=5)
        for target, flat in ((sharded_b, flat_b), (flat_a, flat_a)):
            retired = service.snapshot.version
            assert service.refresh(target) == len(users)
            assert service.snapshot is target
            # the default fan-out follows the new shard count
            assert service.index.workers == min(
                target.manifest.num_item_shards, os.cpu_count() or 1)
            assert not any(key[0] == retired for key in service.cache._data)
            fresh = RecommendationService(target, cache_size=0, workers=1)
            exact = ExactTopKIndex(flat).topk(users, k=5)
            routed = ShardedTopKIndex(target, workers=1).topk(users, k=5)
            for row, (got, want) in enumerate(zip(
                    service.recommend(users, k=5),
                    fresh.recommend(users, k=5))):
                assert got.snapshot_version == target.version
                assert not got.from_cache
                for other in (want.items, exact.items[row],
                              routed.items[row]):
                    np.testing.assert_array_equal(got.items, other)
                for other in (want.scores, exact.scores[row],
                              routed.scores[row]):
                    np.testing.assert_array_equal(got.scores, other)
            assert all(key[0] == target.version for key in service.cache._data)
            service.index.close()
        assert service.stats.refreshes == 2


class TestShardedCLI:
    def test_export_and_recommend_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "sharded-snap"
        rc = main(["export", "--dataset", "tiny", "--model", "mf",
                   "--loss", "sl", "--epochs", "1", "--dim", "8",
                   "--shards", "3", "--partition-by", "both",
                   "--partition", "hash", "--out", str(out)])
        assert rc == 0
        assert _shard_counts(out) == (3, 3)
        assert "sharded snapshot" in capsys.readouterr().out
        rc = main(["recommend", "--snapshot", str(out), "--users", "0,1,2",
                   "--k", "5", "--verify"])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "(exact, 3x3 shards" in shown


class TestConcurrentFanout:
    """Thread-pool shard fan-out must stay bit-identical to sequential.

    The pool maps over the shard list in order and each shard's scores
    come from the same fixed-shape panel kernels regardless of which
    thread runs them, so the merge consumes identical partials in an
    identical order — pinned here for workers > available cores too.
    """

    @pytest.fixture(scope="class")
    def tiny_sharded(self, tiny_cell, tmp_path_factory):
        model, dataset, _ = tiny_cell
        out = tmp_path_factory.mktemp("tiny-fanout")
        return export_sharded_snapshot(model, dataset, out, shards=3)

    @pytest.mark.parametrize("workers", (2, 3, 8))
    def test_bitwise_vs_sequential(self, tiny_cell, tiny_sharded, workers):
        _, dataset, snapshot = tiny_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        sequential = ShardedTopKIndex(tiny_sharded, workers=1)
        concurrent = ShardedTopKIndex(tiny_sharded, workers=workers)
        reference = ExactTopKIndex(snapshot)
        try:
            for filter_seen in (True, False):
                want = sequential.topk(users, k=10, filter_seen=filter_seen)
                got = concurrent.topk(users, k=10, filter_seen=filter_seen)
                np.testing.assert_array_equal(got.items, want.items)
                np.testing.assert_array_equal(got.scores, want.scores)
                flat = reference.topk(users, k=10, filter_seen=filter_seen)
                np.testing.assert_array_equal(got.items, flat.items)
                np.testing.assert_array_equal(got.scores, flat.scores)
        finally:
            concurrent.close()

    def test_default_workers_bounded_by_cpus(self, tiny_sharded):
        import os
        router = ShardedTopKIndex(tiny_sharded)
        assert router.workers == min(3, os.cpu_count() or 1)

    def test_negative_workers_rejected(self, tiny_sharded):
        with pytest.raises(ValueError, match="workers"):
            ShardedTopKIndex(tiny_sharded, workers=-1)

    def test_pool_is_lazy_and_close_idempotent(self, tiny_sharded):
        router = ShardedTopKIndex(tiny_sharded, workers=2)
        assert router._pool is None  # nothing routed yet
        router.close()               # close before first use is a no-op
        router.topk(np.arange(4, dtype=np.int64), k=5)
        assert router._pool is not None
        router.close()
        assert router._pool is None
        # Router stays usable after close: next route reopens a pool.
        router.topk(np.arange(4, dtype=np.int64), k=5)
        assert router._pool is not None
        router.close()
        router.close()

    def test_sequential_router_never_opens_pool(self, tiny_sharded):
        router = ShardedTopKIndex(tiny_sharded, workers=1)
        router.topk(np.arange(8, dtype=np.int64), k=5)
        assert router._pool is None

    def test_service_threads_workers_through(self, tiny_sharded):
        service = ShardedRecommendationService(tiny_sharded, workers=2)
        assert service.index.workers == 2
        service.recommend([0, 1], k=5)
        service.index.close()

    def test_repr_shows_workers(self, tiny_sharded):
        assert "workers=2" in repr(ShardedTopKIndex(tiny_sharded, workers=2))


class TestMergeUnderflow:
    """The `_merge_partials` underflow guard and the invariant that makes
    it unreachable through contract-abiding routers."""

    def test_narrow_partial_raises_instead_of_heap_crash(self):
        # Two shards, each (wrongly) carrying a single column for k=3:
        # 2 total candidates cannot fill 3 ranks.
        partials = [
            (np.array([[0]], dtype=np.int64), np.array([[1.0]])),
            (np.array([[5]], dtype=np.int64), np.array([[0.5]])),
        ]
        with pytest.raises(ValueError, match="underflow"):
            _merge_partials(partials, k=3)

    def test_empty_partial_raises(self):
        partials = [
            (np.empty((1, 0), dtype=np.int64), np.empty((1, 0))),
            (np.empty((1, 0), dtype=np.int64), np.empty((1, 0))),
        ]
        with pytest.raises(ValueError, match="underflow"):
            _merge_partials(partials, k=1)

    def test_contract_widths_cannot_underflow(self, tiny_cell, tmp_path):
        """sum_s min(k, n_s) >= min(k, sum_s n_s): with k clipped to the
        catalogue upstream, contract-abiding partials always fill k."""
        model, dataset, _ = tiny_cell
        sharded = export_sharded_snapshot(model, dataset, tmp_path,
                                          shards=7)
        router = ShardedTopKIndex(sharded)
        sizes = [len(ix.shard) for ix in router.shard_indexes]
        for k in (1, 5, min(sizes), max(sizes) + 1, dataset.num_items):
            assert sum(min(k, n) for n in sizes) >= min(k, sum(sizes))
            result = router.topk(np.arange(4, dtype=np.int64), k=k,
                                 filter_seen=False)
            assert result.items.shape[1] == min(k, dataset.num_items)


def _canonical_partial(rng, m, width, pool, all_inf_rows):
    """``(ids, scores)`` rows of one shard's partial, canonically sorted.

    Each row takes ``width`` distinct ids from the shard's ``pool``;
    scores come from five values, so ties within and across shards are
    common, and the rows in ``all_inf_rows`` are entirely ``-inf``.
    """
    ids = np.stack([rng.choice(pool, size=width, replace=False)
                    for _ in range(m)]).reshape(m, width).astype(np.int64)
    scores = rng.choice([-np.inf, -1.0, 0.0, 0.5, 1.0], size=(m, width))
    scores[all_inf_rows] = -np.inf
    order = np.lexsort((ids, -scores), axis=-1)
    return (np.take_along_axis(ids, order, axis=-1),
            np.take_along_axis(scores, order, axis=-1))


class TestMergeParity:
    """The one-sort merge against the per-row heap merge it replaced
    (``tests/oracles.py``): same items, same score bits, same underflow
    error and the same degraded padding."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 5),
           widths=st.lists(st.integers(0, 6), min_size=1, max_size=4),
           k=st.integers(1, 12), allow_underflow=st.booleans())
    def test_matches_the_heap_merge(self, seed, m, widths, k,
                                    allow_underflow):
        rng = np.random.default_rng(seed)
        all_inf_rows = rng.random(m) < 0.3
        partials = [_canonical_partial(rng, m, width,
                                       np.arange(8 * s, 8 * s + 8),
                                       all_inf_rows)
                    for s, width in enumerate(widths)]
        if sum(widths) < k and not allow_underflow:
            with pytest.raises(ValueError) as want:
                merge_partials_heap(partials, k)
            with pytest.raises(ValueError) as got:
                _merge_partials(partials, k)
            assert str(got.value) == str(want.value)
            return
        want_items, want_scores = merge_partials_heap(partials, k,
                                                      allow_underflow)
        items, scores = _merge_partials(partials, k, allow_underflow)
        np.testing.assert_array_equal(items, want_items)
        assert scores.dtype == want_scores.dtype
        assert scores.tobytes() == want_scores.tobytes()

    def test_cross_shard_ties_break_on_the_smaller_global_id(self):
        partials = [
            (np.array([[9, 4]], dtype=np.int64), np.array([[1.0, 0.5]])),
            (np.array([[2, 7]], dtype=np.int64), np.array([[1.0, 0.5]])),
        ]
        items, scores = _merge_partials(partials, k=3)
        assert items.tolist() == [[2, 9, 4]]
        assert scores.tolist() == [[1.0, 1.0, 0.5]]

    def test_degraded_rows_are_padded_with_explicit_holes(self):
        partials = [(np.array([[3], [5]], dtype=np.int64),
                     np.array([[-np.inf], [0.25]]))]
        items, scores = _merge_partials(partials, k=3, allow_underflow=True)
        assert items.tolist() == [[3, -1, -1], [5, -1, -1]]
        assert scores.tolist() == [[-np.inf] * 3, [0.25, -np.inf, -np.inf]]


class TestShardMemory:
    """A shard scores a chunk ``ROW_BLOCK`` rows at a time, in float32
    first: its peak allocation stays below one float64 64-row block, far
    under the ``(256, n_items)`` block of scoring the chunk whole."""

    @pytest.mark.parametrize("scoring", ["inner", "cosine", "euclidean"])
    def test_partial_topk_peak_is_bounded_by_row_blocks(self, scoring):
        n_items, dim, n_users = 20_000, 16, 256
        rng = np.random.default_rng(0)
        manifest = ShardManifest(
            schema=SHARD_SCHEMA, version="test", kind="item", index=0,
            num_shards=1, strategy="contiguous", count=n_items, dim=dim,
            scoring=scoring, num_users=n_users, num_items=n_items)
        shard = ItemShard(manifest, np.arange(n_items, dtype=np.int64),
                          rng.standard_normal((n_items, dim)))
        index = ItemShardIndex(shard, PanelScorer(shard.embeddings, scoring))
        vectors = scoring_ready_users(rng.standard_normal((n_users, dim)),
                                      scoring)
        seen_indptr = np.arange(0, 5 * n_users + 1, 5, dtype=np.int64)
        seen_global = rng.integers(0, n_items, size=5 * n_users)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items, _ = index.partial_topk(vectors, 20, seen_indptr,
                                          seen_global)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert items.shape == (n_users, 20)
        bound = ROW_BLOCK * n_items * 8
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
