"""Live-index serving: delta chains, incremental IVF, swap-under-traffic.

The churn soak drives ~200 randomized upsert/delete ops against a
yelp2018-small snapshot and, at every commit point, pins the three
live-index contracts end to end:

* **replay parity** — the delta-chain replay of the current state is
  byte-identical (all four arrays + manifest) to a from-scratch export
  of the same state;
* **incremental IVF parity** — the incrementally maintained index, at
  full probe, returns bit-identical top-K items *and scores* to an IVF
  index freshly re-clustered over the churned catalogue (recall@10
  within 1e-12 — in fact exactly 1);
* **service swap invariants** — across refreshes the
  :class:`~repro.serve.service.ServiceStats` ledger stays reconciled
  (``hits + misses == users_served``) and the LRU never holds an entry
  keyed to a retired snapshot version.

Alongside the soak: delta-algebra property tests (composition,
delete-then-upsert, out-of-order/wrong-base rejection), the
runtime-concurrency test (refresh mid-stream under sustained submit
load — no errors, no torn reads), and the poisoned-cache regressions
for the shared panel cache and the per-index routing tables.
"""

import threading
import time

import numpy as np
import pytest

from repro.ann import build_ann_index
from repro.ann.ivf import (IVFFlatIndex, IVFIndexData, assign_lists,
                           train_coarse_quantizer)
from repro.data import load_dataset
from repro.models import MF
from repro.serve import (ExactTopKIndex, RecommendationService,
                         ServingRuntime, export_snapshot)
from repro.serve.delta import (LiveState, apply_deltas, export_delta,
                               export_state, replay_deltas)
from repro.serve.index import scoring_ready_items

#: every on-disk artifact of an unsharded snapshot, compared byte-wise
SNAPSHOT_FILES = ("manifest.json", "user_embeddings.npy",
                  "item_embeddings.npy", "seen_indptr.npy", "seen_items.npy")


@pytest.fixture(scope="module")
def small_dataset():
    return load_dataset("yelp2018-small")


@pytest.fixture(scope="module")
def small_snapshot(small_dataset, tmp_path_factory):
    model = MF(small_dataset.num_users, small_dataset.num_items, dim=16,
               rng=0)
    out = tmp_path_factory.mktemp("live-index") / "base"
    return export_snapshot(model, small_dataset, out)


def _fresh_ivf_data(snapshot, nlist: int, seed: int = 0) -> IVFIndexData:
    """From-scratch IVF build over a snapshot's current catalogue."""
    items_ready = scoring_ready_items(np.asarray(snapshot.items),
                                      snapshot.scoring)
    centroids, _ = train_coarse_quantizer(items_ready, nlist, seed=seed)
    lists = assign_lists(items_ready, centroids)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.cumsum([len(l) for l in lists])])
    return IVFIndexData(centroids, indptr, np.concatenate(lists),
                        snapshot.manifest.num_items, nlist)


def _random_op(state: LiveState, rng, next_ids: dict) -> None:
    """One randomized churn op; keeps the state large enough to delete."""
    item_ids = np.array(sorted(state.items))
    user_ids = np.array(sorted(state.users))
    roll = rng.random()
    if roll < 0.35:
        state.upsert_item(int(rng.choice(item_ids)),
                          rng.normal(size=state.dim))
    elif roll < 0.50:
        state.upsert_item(next_ids["item"], rng.normal(size=state.dim))
        next_ids["item"] += 1
    elif roll < 0.65:
        seen = rng.choice(item_ids, size=min(6, len(item_ids)),
                          replace=False)
        state.upsert_user(int(rng.choice(user_ids)),
                          rng.normal(size=state.dim), np.sort(seen))
    elif roll < 0.75:
        seen = rng.choice(item_ids, size=min(3, len(item_ids)),
                          replace=False)
        state.upsert_user(next_ids["user"], rng.normal(size=state.dim),
                          np.sort(seen))
        next_ids["user"] += 1
    elif roll < 0.90 and len(item_ids) > 32:
        state.delete_item(int(rng.choice(item_ids)))
    elif len(user_ids) > 32:
        state.delete_user(int(rng.choice(user_ids)))
    else:
        state.upsert_item(int(rng.choice(item_ids)),
                          rng.normal(size=state.dim))


class TestChurnSoak:
    SOAK_OPS = 200
    COMMIT_EVERY = 25
    NLIST = 10
    K = 10

    def test_soak_replay_ivf_and_service_invariants(self, small_snapshot,
                                                    tmp_path):
        base = small_snapshot
        rng = np.random.default_rng(42)
        prev = LiveState.from_snapshot(base)
        state = prev.copy()
        next_ids = {"item": base.manifest.num_items,
                    "user": base.manifest.num_users}
        chain = []
        inc_index = build_ann_index(base, tmp_path / "ann",
                                    nlist=self.NLIST, default_nprobe=2,
                                    seed=0)
        service = RecommendationService(base, cache_size=128)
        for op in range(self.SOAK_OPS):
            _random_op(state, rng, next_ids)
            if (op + 1) % self.COMMIT_EVERY:
                continue
            commit = len(chain)
            chain.append(export_delta(prev, state,
                                      tmp_path / f"delta-{commit}"))
            prev = state.copy()

            # -- replay parity: chain replay == from-scratch export, bytes
            replay_dir = tmp_path / f"replay-{commit}"
            scratch_dir = tmp_path / f"scratch-{commit}"
            snap = apply_deltas(base, chain, replay_dir, created_unix=123.0)
            export_state(state, scratch_dir, created_unix=123.0)
            for fname in SNAPSHOT_FILES:
                assert (replay_dir / fname).read_bytes() \
                    == (scratch_dir / fname).read_bytes(), \
                    f"{fname} diverged at commit {commit}"

            # -- incremental IVF == fresh re-cluster at full probe
            inc_index = inc_index.refreshed(snap, staleness_threshold=0.4,
                                            recluster_lists=2)
            assert inc_index.snapshot.version == snap.version
            users = np.arange(min(48, snap.manifest.num_users))
            inc_full = IVFFlatIndex(snap, inc_index.data,
                                    nprobe=inc_index.data.nlist)
            fresh_full = IVFFlatIndex(snap,
                                      _fresh_ivf_data(snap, self.NLIST),
                                      nprobe=self.NLIST)
            got = inc_full.topk(users, k=self.K)
            want = fresh_full.topk(users, k=self.K)
            recall = np.mean([len(np.intersect1d(g, w)) / self.K
                              for g, w in zip(got.items, want.items)])
            assert recall >= 1.0 - 1e-12
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.scores, want.scores)

            # -- service swap: stats ledger + LRU version hygiene
            service.recommend(users[:24], k=5)
            service.refresh(snap)
            stats = service.stats
            assert stats.cache_hits + stats.cache_misses \
                == stats.users_served
            assert len(service.cache) <= service.cache.capacity
            assert all(key[0] == snap.version
                       for key in service.cache._data)
            rec = service.recommend_one(0, k=5)
            assert rec.snapshot_version == snap.version
        assert service.stats.refreshes == len(chain)
        assert len(chain) == self.SOAK_OPS // self.COMMIT_EVERY


class TestDeltaAlgebra:
    @pytest.fixture()
    def base_state(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        return LiveState.from_snapshot(snapshot)

    def _churn(self, state, seed):
        rng = np.random.default_rng(seed)
        out = state.copy()
        out.upsert_item(0, rng.normal(size=out.dim))
        out.upsert_item(max(out.items) + 1, rng.normal(size=out.dim))
        out.delete_item(sorted(out.items)[3 + seed])
        out.upsert_user(1, rng.normal(size=out.dim), [0, 5])
        return out

    def test_chain_composes(self, base_state, tmp_path):
        """apply(base, [d1, d2]) == apply(apply(base, [d1]), [d2])."""
        s1 = self._churn(base_state, 1)
        s2 = self._churn(s1, 2)
        d1 = export_delta(base_state, s1, tmp_path / "d1")
        d2 = export_delta(s1, s2, tmp_path / "d2")
        chained = apply_deltas(
            snapshot_of(base_state), [d1, d2], created_unix=1.0)
        mid = apply_deltas(snapshot_of(base_state), [d1], created_unix=1.0)
        stepped = apply_deltas(mid, [d2], created_unix=1.0)
        assert chained.version == stepped.version == s2.version()
        np.testing.assert_array_equal(np.asarray(chained.items),
                                      np.asarray(stepped.items))
        np.testing.assert_array_equal(np.asarray(chained.users),
                                      np.asarray(stepped.users))

    def test_delete_then_upsert_equals_upsert(self, base_state):
        row = np.full(base_state.dim, 0.5)
        fresh_item = max(base_state.items) + 1

        a = base_state.copy()
        a.upsert_item(fresh_item, np.ones(base_state.dim))
        a.delete_item(fresh_item)
        a.upsert_item(fresh_item, row)
        b = base_state.copy()
        b.upsert_item(fresh_item, row)
        assert a.version() == b.version()

        a = base_state.copy()
        a.delete_user(2)
        a.upsert_user(2, row, [0, 1])
        b = base_state.copy()
        b.upsert_user(2, row, [0, 1])
        assert a.version() == b.version()

    def test_out_of_order_chain_rejected(self, base_state, tmp_path):
        s1 = self._churn(base_state, 1)
        s2 = self._churn(s1, 2)
        d1 = export_delta(base_state, s1, tmp_path / "d1")
        d2 = export_delta(s1, s2, tmp_path / "d2")
        with pytest.raises(ValueError, match="chain broken at position 0"):
            replay_deltas(base_state, [d2, d1])

    def test_wrong_base_rejected(self, base_state, tmp_path):
        s1 = self._churn(base_state, 1)
        s2 = self._churn(s1, 2)
        d2 = export_delta(s1, s2, tmp_path / "d2")
        with pytest.raises(ValueError, match="chain broken"):
            replay_deltas(base_state, [d2])

    def test_unchanged_user_not_reexported(self, base_state, tmp_path):
        """Item deletion alone must not re-upsert seen-list-only users."""
        changed = base_state.copy()
        changed.delete_item(0)
        delta = export_delta(base_state, changed, tmp_path / "d")
        assert delta.manifest.item_deletes == 1
        assert delta.manifest.user_upserts == 0  # scrub is implied


def snapshot_of(state: LiveState):
    """In-memory snapshot of a state (timestamp pinned for parity)."""
    from repro.serve.delta import snapshot_from_state
    return snapshot_from_state(state, created_unix=1.0)


class TestRefreshUnderTraffic:
    def test_no_errors_no_torn_reads(self, tiny_dataset, tiny_mf_snapshot,
                                     tmp_path):
        """Sustained submit load across swaps: every response is whole.

        A pumper thread submits continuously while the main thread
        ping-pongs ``refresh()`` between two snapshot versions.  Every
        response must be attributable to exactly one version — its
        items must equal what a dedicated index over that version
        returns for that user — and the runtime must neither error nor
        drop a request.
        """
        _, snap_a = tiny_mf_snapshot
        rng = np.random.default_rng(0)
        state = LiveState.from_snapshot(snap_a)
        for iid in list(state.items)[:16]:
            state.upsert_item(iid, rng.normal(size=state.dim))
        snap_b = export_state(state, tmp_path / "b", created_unix=1.0)

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
                                                     tmp_path):
        _, snap_a = tiny_mf_snapshot
        state = LiveState.from_snapshot(snap_a)
        state.upsert_item(0, np.ones(state.dim))
        snap_b = export_state(state, tmp_path / "b", created_unix=1.0)
        runtime = ServingRuntime(RecommendationService(snap_a))
        runtime.refresh(snap_b)
        assert runtime.service.snapshot.version == snap_b.version


class TestPoisonedCacheRegressions:
    """A snapshot swap must never serve content keyed to the old version."""

    def _generations(self, tiny_mf_snapshot, tmp_path):
        _, snap_a = tiny_mf_snapshot
        state = LiveState.from_snapshot(snap_a)
        for iid in list(state.items)[:24]:
            # scaling flips cosine rankings without changing shapes
            state.upsert_item(iid, np.asarray(state.items[iid]) * -2.0)
        snap_b = export_state(state, tmp_path / "gen-b", created_unix=1.0)
        return snap_a, snap_b

    def test_shared_panel_cache_keyed_by_generation(self, tiny_mf_snapshot,
                                                    tmp_path):
        """One IVFIndexData serving two snapshot generations stays correct.

        Panels once lived on the shared ``IVFIndexData``, keyed only on
        the probed lists: generation B would reuse generation A's item
        rows and serve stale scores.  They now belong to the serving
        index, so sharing the index data shares no item row.
        """
        snap_a, snap_b = self._generations(tiny_mf_snapshot, tmp_path)
        shared = _fresh_ivf_data(snap_a, nlist=8)
        users = np.arange(snap_a.manifest.num_users)
        # serve generation A's rows first, through the same index data
        IVFFlatIndex(snap_a, shared, nprobe=8).topk(users, k=5)
        got = IVFFlatIndex(snap_b, shared, nprobe=8).topk(users, k=5)
        want = ExactTopKIndex(snap_b).topk(users, k=5)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_routing_tables_keyed_by_snapshot_version(self, tiny_mf_snapshot,
                                                      tmp_path):
        """A refreshed index never answers through generation A's probes."""
        snap_a, snap_b = self._generations(tiny_mf_snapshot, tmp_path)
        index = IVFFlatIndex(snap_a, _fresh_ivf_data(snap_a, nlist=8),
                             nprobe=2)
        users = np.arange(16)
        index.topk(users, k=5)
        got = index.refreshed(snap_b, staleness_threshold=None).topk(users,
                                                                     k=5)
        want = IVFFlatIndex(snap_b, _fresh_ivf_data(snap_a, nlist=8),
                            nprobe=2).topk(users, k=5)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_service_lru_never_serves_retired_version(self,
                                                      tiny_mf_snapshot,
                                                      tmp_path):
        snap_a, snap_b = self._generations(tiny_mf_snapshot, tmp_path)
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

    def test_refresh_rejects_mismatched_index(self, tiny_mf_snapshot,
                                              tmp_path):
        snap_a, snap_b = self._generations(tiny_mf_snapshot, tmp_path)
        service = RecommendationService(snap_a)
        with pytest.raises(ValueError, match="wraps snapshot"):
            service.refresh(snap_b, index=ExactTopKIndex(snap_a))
