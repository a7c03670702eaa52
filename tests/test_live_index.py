"""Live refresh: a re-exported snapshot swapped in under traffic.

A refresh is a re-export followed by
:meth:`~repro.serve.service.RecommendationService.refresh` /
:meth:`~repro.serve.runtime.ServingRuntime.refresh`.  The tests swap
between two generations of the tiny MF cell (``tiny_mf_snapshot`` and
its re-seeded ``tiny_mf_snapshot_next``) and pin:

* **refreshed IVF parity** — an IVF index refreshed onto the next
  generation (its lists re-filed under the old centroids) returns, at
  full probe, bit-identical top-K items *and scores* to a fresh build
  over that generation, for moved rows and for a changed item count;
* **swap under traffic** — refresh mid-stream under sustained submit
  load: no errors, no dropped requests, no torn reads;
* **poisoned-cache regressions** for the per-index panel cache, the
  routing tables and the service LRU.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.kmeans import sq_dists
from repro.ann import build_ann_index
from repro.ann.ivf import (IVFFlatIndex, IVFIndexData, assign_lists,
                           train_coarse_quantizer)
from repro.data import load_dataset
from repro.models import MF
from repro.serve import (ExactTopKIndex, RecommendationService,
                         ServingRuntime, export_snapshot)
from repro.serve.index import scoring_ready_items


def _fresh_ivf_data(snapshot, nlist: int, seed: int = 0) -> IVFIndexData:
    """From-scratch IVF build over a snapshot's current catalogue."""
    items_ready = scoring_ready_items(np.asarray(snapshot.items),
                                      snapshot.scoring)
    centroids, _ = train_coarse_quantizer(items_ready, nlist, seed=seed)
    return IVFIndexData.from_lists(centroids,
                                   assign_lists(items_ready, centroids),
                                   snapshot.manifest.num_items, nlist)


class TestRefreshedIVF:
    NLIST = 8
    K = 10

    @pytest.mark.parametrize("generation", ["moved-rows", "new-catalogue"])
    def test_full_probe_matches_fresh_build(self, generation,
                                            tiny_mf_snapshot,
                                            tiny_mf_snapshot_next, tmp_path):
        """Refreshing files the new rows under the old centroids; at full
        probe that answers exactly like a fresh build, and every item is
        in its nearest list."""
        _, snap_a = tiny_mf_snapshot
        if generation == "moved-rows":
            _, snap_b = tiny_mf_snapshot_next
        else:
            dataset = load_dataset("ml1m-small")
            snap_b = export_snapshot(
                MF(dataset.num_users, dataset.num_items, dim=8, rng=2),
                dataset, tmp_path / "b")
            assert snap_b.manifest.num_items != snap_a.manifest.num_items
        old = build_ann_index(snap_a, tmp_path / "a", nlist=self.NLIST,
                              default_nprobe=self.NLIST, seed=0)
        refreshed = old.refreshed(snap_b)
        fresh = build_ann_index(snap_b, tmp_path / "fresh", nlist=self.NLIST,
                                default_nprobe=self.NLIST, seed=0)
        assert refreshed.snapshot is snap_b
        assert refreshed.nprobe == self.NLIST
        np.testing.assert_array_equal(refreshed.data.centroids,
                                      old.data.centroids)
        users = np.arange(snap_b.manifest.num_users)
        got = refreshed.topk(users, k=self.K)
        want = fresh.topk(users, k=self.K)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

        items_ready = scoring_ready_items(np.asarray(snap_b.items),
                                          snap_b.scoring)
        nearest = sq_dists(items_ready,
                           refreshed.data.centroids).argmin(axis=1)
        for c in range(self.NLIST):
            np.testing.assert_array_equal(refreshed.data.list_ids(c),
                                          np.flatnonzero(nearest == c))


class TestRefreshUnderTraffic:
    def test_no_errors_no_torn_reads(self, tiny_dataset, tiny_mf_snapshot,
                                     tiny_mf_snapshot_next):
        """Sustained submit load across swaps: every response is whole.

        A pumper thread submits continuously while the main thread
        ping-pongs ``refresh()`` between two snapshot versions.  Every
        response must be attributable to exactly one version — its
        items must equal what a dedicated index over that version
        returns for that user — and the runtime must neither error nor
        drop a request.
        """
        _, snap_a = tiny_mf_snapshot
        _, snap_b = tiny_mf_snapshot_next

        k = 5
        n_users = tiny_dataset.num_users
        reference = {
            snap.version: ExactTopKIndex(snap).topk(np.arange(n_users), k=k)
            for snap in (snap_a, snap_b)}
        service = RecommendationService(snap_a, cache_size=256)
        flip = {snap_a.version: snap_b, snap_b.version: snap_a}
        errors, handles = [], []
        stop = threading.Event()

        def pump():
            i = 0
            while not stop.is_set():
                try:
                    handles.append(service_runtime.submit(i % n_users, k=k))
                except Exception as exc:  # noqa: BLE001 - recorded, asserted
                    errors.append(exc)
                i += 1
                time.sleep(0.0005)

        with ServingRuntime(service) as service_runtime:
            pumper = threading.Thread(target=pump)
            pumper.start()
            time.sleep(0.03)
            for _ in range(4):
                service_runtime.refresh(flip[service.snapshot.version])
                time.sleep(0.02)
            stop.set()
            pumper.join()
            results = [h.result(timeout=10.0) for h in handles]
        assert not errors
        assert len(results) == len(handles)
        assert service_runtime.stats.refreshes == 4
        for rec in results:
            truth = reference[rec.snapshot_version]  # KeyError == torn read
            np.testing.assert_array_equal(rec.items,
                                          truth.items[rec.user_id])
        breakdown = service_runtime.breakdown()
        assert breakdown["refresh_ms"] > 0.0

    def test_breakdown_carries_refresh_ms_before_any_refresh(
            self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        runtime = ServingRuntime(RecommendationService(snapshot))
        assert runtime.breakdown()["refresh_ms"] == 0.0

    def test_stopped_runtime_refreshes_synchronously(self, tiny_mf_snapshot,
                                                     tiny_mf_snapshot_next):
        _, snap_a = tiny_mf_snapshot
        _, snap_b = tiny_mf_snapshot_next
        runtime = ServingRuntime(RecommendationService(snap_a))
        runtime.refresh(snap_b)
        assert runtime.service.snapshot.version == snap_b.version


class TestPoisonedCacheRegressions:
    """A snapshot swap must never serve content keyed to the old version."""

    @pytest.fixture()
    def generations(self, tiny_mf_snapshot, tiny_mf_snapshot_next):
        return tiny_mf_snapshot[1], tiny_mf_snapshot_next[1]

    def test_shared_panel_cache_keyed_by_generation(self, generations):
        """One IVFIndexData serving two snapshot generations stays correct.

        Panels once lived on the shared ``IVFIndexData``, keyed only on
        the probed lists: generation B would reuse generation A's item
        rows and serve stale scores.  They now belong to the serving
        index, so sharing the index data shares no item row.
        """
        snap_a, snap_b = generations
        shared = _fresh_ivf_data(snap_a, nlist=8)
        users = np.arange(snap_a.manifest.num_users)
        # serve generation A's rows first, through the same index data
        IVFFlatIndex(snap_a, shared, nprobe=8).topk(users, k=5)
        got = IVFFlatIndex(snap_b, shared, nprobe=8).topk(users, k=5)
        want = ExactTopKIndex(snap_b).topk(users, k=5)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_routing_tables_keyed_by_snapshot_version(self, generations):
        """A refreshed index never answers through generation A's probes."""
        snap_a, snap_b = generations
        index = IVFFlatIndex(snap_a, _fresh_ivf_data(snap_a, nlist=8),
                             nprobe=2)
        users = np.arange(16)
        index.topk(users, k=5)
        got = index.refreshed(snap_b).topk(users, k=5)
        want = IVFFlatIndex(snap_a, _fresh_ivf_data(snap_a, nlist=8),
                            nprobe=2).refreshed(snap_b).topk(users, k=5)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_service_lru_never_serves_retired_version(self, generations):
        snap_a, snap_b = generations
        users = list(range(12))
        service = RecommendationService(snap_a, cache_size=64)
        service.recommend(users, k=5)
        service.recommend(users, k=5)  # warm: second pass is all hits
        assert service.stats.cache_hits >= len(users)
        invalidated = service.refresh(snap_b)
        assert invalidated == len(users)
        post = service.recommend(users, k=5)
        want = RecommendationService(snap_b, cache_size=0).recommend(
            users, k=5)
        for got_rec, want_rec in zip(post, want):
            assert not got_rec.from_cache
            assert got_rec.snapshot_version == snap_b.version
            np.testing.assert_array_equal(got_rec.items, want_rec.items)
            np.testing.assert_array_equal(got_rec.scores, want_rec.scores)

    def test_refresh_rejects_mismatched_index(self, generations):
        snap_a, snap_b = generations
        service = RecommendationService(snap_a)
        with pytest.raises(ValueError, match="wraps snapshot"):
            service.refresh(snap_b, index=ExactTopKIndex(snap_a))
