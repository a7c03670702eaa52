"""RecommendationService: caching, batching, version keying."""

import sys
import threading

import numpy as np
import pytest

from repro.serve import (ExactTopKIndex, LRUCache, RecommendationService,
                         ResilienceConfig, load_snapshot)


@pytest.fixture()
def service(tiny_mf_snapshot):
    _, snapshot = tiny_mf_snapshot
    return RecommendationService(snapshot, max_batch=16)


class TestRecommend:
    def test_matches_index_topk(self, tiny_mf_snapshot, service):
        _, snapshot = tiny_mf_snapshot
        users = np.array([3, 1, 4, 1, 5])
        expected = ExactTopKIndex(snapshot).topk(users, k=7)
        results = service.recommend(users, k=7)
        assert [r.user_id for r in results] == users.tolist()
        for row, rec in enumerate(results):
            np.testing.assert_array_equal(rec.items, expected.items[row])
            np.testing.assert_array_equal(rec.scores, expected.scores[row])
            assert rec.snapshot_version == snapshot.version

    def test_duplicate_users_answered_once(self, service):
        results = service.recommend([2, 2, 2], k=5)
        assert service.stats.cache_misses == 1
        np.testing.assert_array_equal(results[0].items, results[1].items)

    def test_second_call_hits_cache(self, service):
        first = service.recommend([0, 1, 2], k=5)
        assert all(not r.from_cache for r in first)
        second = service.recommend([0, 1, 2], k=5)
        assert all(r.from_cache for r in second)
        assert service.stats.cache_hits == 3
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.items, b.items)

    def test_cache_key_includes_k_and_filtering(self, service):
        service.recommend([0], k=5)
        service.recommend([0], k=6)
        service.recommend([0], k=5, filter_seen=False)
        assert service.stats.cache_misses == 3

    def test_large_batches_swept_in_max_batch_slices(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, max_batch=10, cache_size=0)
        service.recommend(np.arange(35), k=5)
        assert service.stats.index_sweeps == 4  # ceil(35 / 10)

    def test_cache_disabled(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        service.recommend([0], k=5)
        service.recommend([0], k=5)
        assert service.stats.cache_hits == 0
        assert service.stats.index_sweeps == 2

    def test_recommend_one(self, service):
        rec = service.recommend_one(11, k=3)
        assert rec.user_id == 11 and len(rec.items) == 3

    def test_filter_seen_respected(self, tiny_dataset, service):
        rec = service.recommend_one(5, k=10)
        seen = set(tiny_dataset.train_items_by_user[5].tolist())
        assert not seen & set(rec.items.tolist())

    def test_results_cannot_poison_cache(self, service):
        """Mutating a returned result must fail, not corrupt the cache."""
        rec = service.recommend_one(0, k=5)
        with pytest.raises(ValueError):
            rec.items[0] = -1
        with pytest.raises(ValueError):
            rec.scores[:] = 0.0
        again = service.recommend_one(0, k=5)
        assert again.from_cache and again.items[0] != -1


class TestStatsAccounting:
    """The reconciled ServiceStats contract: ``requests`` counts client
    calls only, and every user slot lands in exactly one of
    hits/misses — so ``cache_hits + cache_misses == users_served``."""

    def test_requests_counts_client_calls_only(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, max_batch=4)
        service.recommend([0, 1, 2], k=5)
        assert service.stats.requests == 1
        service.recommend(np.arange(10, 20), k=5)  # three internal sweeps
        assert service.stats.index_sweeps == 4
        assert service.stats.requests == 2  # a sweep is not a client call

    def test_in_batch_duplicates_tally_as_hits(self, service):
        service.recommend([2, 2, 2], k=5)
        stats = service.stats
        assert stats.users_served == 3
        assert stats.cache_misses == 1 and stats.cache_hits == 2
        assert stats.cache_hits + stats.cache_misses == stats.users_served

    def test_duplicate_of_in_batch_miss_reports_from_cache(self, service):
        first, dup = service.recommend([7, 7], k=5)
        assert not first.from_cache
        assert dup.from_cache
        np.testing.assert_array_equal(first.items, dup.items)
        np.testing.assert_array_equal(first.scores, dup.scores)

    def test_duplicate_of_lru_hit_stays_from_cache(self, service):
        service.recommend([4], k=5)
        a, b = service.recommend([4, 4], k=5)
        assert a.from_cache and b.from_cache

    def test_counters_reconcile_across_mixed_traffic(self, service):
        service.recommend([0], k=5)                # 1 miss
        service.recommend([0, 1, 1, 2, 0], k=5)    # hit, miss, dup, miss, dup
        stats = service.stats
        assert stats.users_served == 6
        assert stats.cache_misses == 3 and stats.cache_hits == 3
        assert stats.cache_hits + stats.cache_misses == stats.users_served
        assert stats.hit_rate == 0.5

    def test_duplicates_with_cache_disabled_still_reconcile(
            self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        results = service.recommend([3, 3], k=5)
        stats = service.stats
        # The in-batch dedup answers the second slot without a sweep
        # even with the LRU off — still a hit in the tally.
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert results[1].from_cache
        assert stats.index_sweeps == 1

    def test_concurrent_callers_lose_no_update(self, service):
        """``stats.x += n`` was a read and a separate write: with four
        threads switching every microsecond it lost dozens of updates
        in 20,000 calls and broke the hits + misses invariant."""
        service.recommend(np.arange(8), k=5)  # warm: every call below hits
        before = service.stats.users_served
        calls = 5_000

        def client(user):
            for _ in range(calls):
                service.recommend([user], k=5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(user,))
                       for user in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        stats = service.stats
        assert stats.requests == 1 + 4 * calls
        assert stats.users_served == before + 4 * calls
        assert stats.cache_hits + stats.cache_misses == stats.users_served

    def test_sweep_clock_accumulates(self, service):
        assert service.stats.sweep_ms_per_sweep == 0.0
        service.recommend([0, 1], k=5)
        assert service.stats.index_sweeps == 1
        assert service.stats.sweep_s > 0.0
        assert service.stats.sweep_ms_per_sweep > 0.0


class TestCachedLookup:
    """``cached()`` is the hit path the serving runtime asks at
    admission: it answers from the cache or returns ``None``, and
    counts only a hit."""

    def test_miss_returns_none_and_counts_nothing(self, service):
        assert service.cached(3, k=5) is None
        stats = service.stats
        assert (stats.requests, stats.users_served, stats.cache_hits,
                stats.cache_misses) == (0, 0, 0, 0)

    def test_hit_equals_recommend_and_counts_one_slot(self, service):
        served = service.recommend_one(3, k=5)
        hit = service.cached(3, k=5)
        assert hit.from_cache and hit.user_id == 3
        assert hit.snapshot_version == served.snapshot_version
        assert hit.items.tobytes() == served.items.tobytes()
        assert hit.scores.tobytes() == served.scores.tobytes()
        stats = service.stats
        assert stats.requests == 2 and stats.users_served == 2
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_key_includes_k_and_filtering(self, service):
        service.recommend_one(3, k=5)
        assert service.cached(3, k=6) is None
        assert service.cached(3, k=5, filter_seen=False) is None
        assert service.cached(3, k=5) is not None

    def test_no_hit_from_the_retired_version(self, tiny_mf_snapshot,
                                             tiny_mf_snapshot_next):
        _, snap_a = tiny_mf_snapshot
        _, snap_b = tiny_mf_snapshot_next
        service = RecommendationService(snap_a)
        service.recommend_one(3, k=5)
        assert service.cached(3, k=5).snapshot_version == snap_a.version
        service.refresh(snap_b)
        assert service.cached(3, k=5) is None
        service.recommend_one(3, k=5)
        assert service.cached(3, k=5).snapshot_version == snap_b.version


class TestVersionKeying:
    def test_new_snapshot_version_never_reuses_cache(self, tiny_dataset,
                                                     tmp_path):
        from repro.models import MF
        from repro.serve import export_snapshot

        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        snap_a = export_snapshot(model, tiny_dataset, tmp_path / "a")
        model.user_embedding.weight.data[...] += 0.5
        snap_b = export_snapshot(model, tiny_dataset, tmp_path / "b")
        assert snap_a.version != snap_b.version
        shared = LRUCache(64)
        svc_a = RecommendationService(snap_a)
        svc_b = RecommendationService(snap_b)
        svc_a.cache = svc_b.cache = shared  # worst case: shared store
        svc_a.recommend([0], k=5)
        svc_b.recommend([0], k=5)
        assert svc_b.stats.cache_hits == 0 and svc_b.stats.cache_misses == 1

    def test_mismatched_index_rejected(self, tiny_dataset, tiny_mf_snapshot,
                                       tmp_path):
        from repro.models import MF
        from repro.serve import export_snapshot

        _, snapshot = tiny_mf_snapshot
        other_model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                         dim=8, rng=42)
        other = export_snapshot(other_model, tiny_dataset, tmp_path)
        with pytest.raises(ValueError, match="wraps snapshot"):
            RecommendationService(snapshot, index=ExactTopKIndex(other))

    @pytest.mark.parametrize("policy", [
        {"resilience": ResilienceConfig(strict=True)}, {"workers": 2},
        {"workers": 0}])
    def test_router_options_with_an_index_rejected(self, tiny_mf_snapshot,
                                                   policy):
        """``workers`` / ``resilience`` configure the router the service
        builds; with ``index=`` they would be dropped silently."""
        _, snapshot = tiny_mf_snapshot
        with pytest.raises(ValueError, match="configure the router"):
            RecommendationService(snapshot, index=ExactTopKIndex(snapshot),
                                  **policy)

    def test_ivf_index_cached_separately(self, tiny_mf_snapshot, tmp_path):
        from repro.ann import build_ann_index

        _, snapshot = tiny_mf_snapshot
        cache = LRUCache(64)
        exact = RecommendationService(snapshot)
        ivf = RecommendationService(snapshot, index=build_ann_index(
            snapshot, tmp_path, nlist=4, seed=0))
        exact.cache = ivf.cache = cache
        exact.recommend([0], k=5)
        ivf.recommend([0], k=5)
        assert ivf.stats.cache_hits == 0  # kind is part of the key

    def test_refresh_during_sweep_keeps_old_lists_under_old_version(
            self, tiny_dataset, tiny_mf_snapshot, tmp_path):
        """A refresh landing while a sweep runs must not label or cache
        the old index's lists under the incoming version."""
        from repro.models import MF
        from repro.serve import export_snapshot

        _, old = tiny_mf_snapshot
        new = export_snapshot(
            MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
               rng=42), tiny_dataset, tmp_path)
        new_index = ExactTopKIndex(new)

        class RefreshingIndex:
            """Stand-in whose sweep is overtaken by a refresh."""
            kind = "exact"
            snapshot = old

            def topk(self, user_ids, k, filter_seen=True):
                result = ExactTopKIndex(old).topk(user_ids, k=k,
                                                  filter_seen=filter_seen)
                service.refresh(new, index=new_index)
                return result

        service = RecommendationService(old, index=RefreshingIndex())
        first = service.recommend([3], k=5)[0]
        assert first.snapshot_version == old.version
        again = service.recommend([3], k=5)[0]
        assert again.snapshot_version == new.version
        assert not again.from_cache
        np.testing.assert_array_equal(again.items,
                                      new_index.topk([3], k=5).items[0])

    def test_serving_from_disk_snapshot(self, tiny_mf_snapshot):
        """End-to-end: mmap-load the exported directory and serve."""
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(load_snapshot(snapshot.path))
        rec = service.recommend_one(0, k=5)
        direct = ExactTopKIndex(snapshot).topk([0], k=5)
        np.testing.assert_array_equal(rec.items, direct.items[0])


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_never_stores(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_eviction_order_under_mixed_get_put(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"      # order now b, c, a
        cache.put("b", "B2")              # refresh b -> c, a, b
        cache.put("d", "D")               # evicts c
        assert cache.get("c") is None
        assert cache.get("b") == "B2"     # refreshed value survived
        cache.put("e", "E")               # evicts a (oldest after gets)
        assert cache.get("a") is None
        assert cache.get("d") == "D" and cache.get("e") == "E"
        assert len(cache) == 3

    def test_put_refreshes_existing_key_without_growth(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1 and cache.get("a") == 2

    def test_clear_empties(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None


class TestLRUCacheThreadSafety:
    def test_concurrent_put_get_invalidate(self):
        """Hammer one cache from many threads: no corruption, bound held.

        The LRU is shared by the request path and ``refresh()``'s
        invalidation sweep, so every operation must be safe under
        concurrent mutation (an OrderedDict corrupts without the lock).
        """
        import threading

        cache = LRUCache(64)
        errors = []
        start = threading.Barrier(8)

        def hammer(worker):
            try:
                start.wait()
                for i in range(2000):
                    key = ("v", worker % 4, i % 100)
                    cache.put(key, i)
                    cache.get(("v", (worker + 1) % 4, i % 100))
                    if i % 250 == 0:
                        cache.invalidate(lambda k, w=worker: k[1] == w % 4)
                    if i % 997 == 0:
                        cache.clear()
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64
        # The cache still functions normally after the storm.
        cache.put("after", 1)
        assert cache.get("after") == 1
