"""ANN subsystem: parity, recall floors, over-fetch, persistence."""

import numpy as np
import pytest

from repro.ann import (IVFFlatIndex, IVFIndexData, assign_lists,
                       build_ann_index, is_ann_index, load_ann_index,
                       train_coarse_quantizer)
from repro.eval.metrics import overlap_at_k, rank_items
from repro.models import get_model
from repro.serve import (ExactTopKIndex, RecommendationService,
                         export_snapshot)
from repro.serve.index import scoring_ready_users
from tests.oracles import ivf_candidates_csr, with_items


@pytest.fixture(scope="module")
def yelp_ivf(yelp_retrieval, tmp_path_factory):
    """An on-disk IVF index (nlist=16, nprobe=2) over the yelp snapshot."""
    _, _, snapshot = yelp_retrieval
    out = tmp_path_factory.mktemp("yelp-ann")
    return out, build_ann_index(snapshot, out, nlist=16, default_nprobe=2,
                                seed=0)


class TestTraining:
    def test_quantizer_shapes_and_determinism(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        items = np.asarray(snapshot.items)
        c1, l1 = train_coarse_quantizer(items, 4, seed=7)
        c2, l2 = train_coarse_quantizer(items, 4, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)
        assert c1.shape == (4, items.shape[1])
        c3, _ = train_coarse_quantizer(items, 4, seed=8)
        assert not np.array_equal(c1, c3)

    def test_assign_lists_partitions_catalogue(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        items = np.asarray(snapshot.items)
        centroids, _ = train_coarse_quantizer(items, 4, seed=0)
        lists = assign_lists(items, centroids, spill=1)
        merged = np.sort(np.concatenate(lists))
        np.testing.assert_array_equal(merged, np.arange(len(items)))
        for ids in lists:
            assert np.all(np.diff(ids) > 0)  # ascending, unique

    def test_spill_stores_items_redundantly(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        items = np.asarray(snapshot.items)
        centroids, _ = train_coarse_quantizer(items, 4, seed=0)
        spilled = assign_lists(items, centroids, spill=2)
        assert sum(len(ids) for ids in spilled) == 2 * len(items)

    def test_bad_args_rejected(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        items = np.asarray(snapshot.items)
        with pytest.raises(ValueError):
            train_coarse_quantizer(items, 0)
        centroids, _ = train_coarse_quantizer(items, 4, seed=0)
        with pytest.raises(ValueError):
            assign_lists(items, centroids, spill=0)
        with pytest.raises(ValueError):
            assign_lists(items, centroids, spill=5)


class TestExactnessBoundary:
    """ISSUE acceptance: nprobe == nlist is bit-identical to exact.

    The parity configuration pins what the exact index pins —
    ``panel_width`` and ``chunk_users`` — because BLAS bit patterns are
    a function of every GEMM dimension.  With those matched, the single
    probe-signature covers the catalogue in ascending id order and the
    ANN path performs literally the exact index's computation.
    """

    def test_bit_identical_on_yelp(self, yelp_retrieval, yelp_ivf):
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        exact = ExactTopKIndex(snapshot)
        boundary = IVFFlatIndex(snapshot, built.data, nprobe=built.data.nlist,
                                panel_width=512, chunk_users=256)
        users = np.arange(dataset.num_users, dtype=np.int64)
        a = boundary.topk(users, k=10)
        e = exact.topk(users, k=10)
        np.testing.assert_array_equal(a.items, e.items)
        np.testing.assert_array_equal(a.scores, e.scores)

    @pytest.mark.parametrize("batch", [1, 37, 256])
    def test_bit_identical_across_batch_sizes(self, yelp_retrieval,
                                              yelp_ivf, batch):
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        exact = ExactTopKIndex(snapshot)
        boundary = IVFFlatIndex(snapshot, built.data, nprobe=built.data.nlist,
                                panel_width=512, chunk_users=256)
        users = np.arange(0, dataset.num_users, 3, dtype=np.int64)[:batch]
        a = boundary.topk(users, k=10)
        e = exact.topk(users, k=10)
        np.testing.assert_array_equal(a.items, e.items)
        np.testing.assert_array_equal(a.scores, e.scores)

    def test_bit_identical_unfiltered_and_k_sweep(self, yelp_retrieval,
                                                  yelp_ivf):
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        exact = ExactTopKIndex(snapshot)
        boundary = IVFFlatIndex(snapshot, built.data, nprobe=built.data.nlist,
                                panel_width=512, chunk_users=256)
        users = np.arange(dataset.num_users, dtype=np.int64)
        for k, filter_seen in ((1, True), (37, True), (10_000, False)):
            a = boundary.topk(users, k=k, filter_seen=filter_seen)
            e = exact.topk(users, k=k, filter_seen=filter_seen)
            np.testing.assert_array_equal(a.items, e.items)
            np.testing.assert_array_equal(a.scores, e.scores)

    def test_euclidean_scoring_boundary(self, tiny_dataset, tmp_path):
        """CML snapshots (euclidean scoring) keep the parity contract."""
        model = get_model("cml", tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path / "snap")
        assert snapshot.scoring == "euclidean"
        built = build_ann_index(snapshot, tmp_path / "ann", nlist=4, seed=0)
        boundary = IVFFlatIndex(snapshot, built.data, nprobe=4,
                                chunk_users=256)
        exact = ExactTopKIndex(snapshot, panel_width=boundary.panel_width)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        a = boundary.topk(users, k=10)
        e = exact.topk(users, k=10)
        np.testing.assert_array_equal(a.items, e.items)
        np.testing.assert_array_equal(a.scores, e.scores)

    def test_euclidean_partial_probe_is_sane(self, tiny_dataset, tmp_path):
        """At nprobe < nlist the euclidean path ranks by distance, so
        it recovers most of the exact top-10 (a raw-dot-product bug
        would tank this)."""
        model = get_model("cml", tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path / "snap")
        built = build_ann_index(snapshot, tmp_path / "ann", nlist=4,
                                default_nprobe=2, seed=0)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        exact = ExactTopKIndex(snapshot).topk(users, k=10).items
        recall = overlap_at_k(exact, built.topk(users, k=10).items)
        assert recall >= 0.7

    def test_tiny_boundary_with_default_width(self, tiny_dataset,
                                              tiny_mf_snapshot, tmp_path):
        """Same identity at the ANN default panel width, exact matched."""
        _, snapshot = tiny_mf_snapshot
        built = build_ann_index(snapshot, tmp_path, nlist=4, seed=0)
        boundary = IVFFlatIndex(snapshot, built.data, nprobe=4,
                                chunk_users=256)
        exact = ExactTopKIndex(snapshot,
                               panel_width=boundary.panel_width)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        a = boundary.topk(users, k=10)
        e = exact.topk(users, k=10)
        np.testing.assert_array_equal(a.items, e.items)
        np.testing.assert_array_equal(a.scores, e.scores)


class TestOverFetch:
    def test_heaviest_users_get_full_lists(self, yelp_retrieval, yelp_ivf):
        """filter_seen masking must never starve the top-k."""
        dataset, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        seen_counts = np.diff(snapshot.seen_indptr)
        heavy = np.argsort(-seen_counts)[:25].astype(np.int64)
        assert seen_counts[heavy].max() > 50  # genuinely heavy users
        result = index.topk(heavy, k=10, filter_seen=True)
        assert np.all(result.items >= 0)
        assert np.all(result.items < dataset.num_items)
        assert np.all(np.isfinite(result.scores))
        for row, user in enumerate(heavy.tolist()):
            seen = set(dataset.train_items_by_user[user].tolist())
            assert not seen & set(result.items[row].tolist())

    def test_probe_expansion_scales_with_seen(self, yelp_retrieval,
                                              yelp_ivf):
        """Heavy users' candidate sets expand past nprobe lists."""
        _, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        seen_counts = np.diff(snapshot.seen_indptr).astype(np.int64)
        heavy = int(np.argmax(seen_counts))
        vectors = scoring_ready_users(snapshot.users[[heavy]],
                                      snapshot.scoring)
        indptr, ids = ivf_candidates_csr(
            index.data, vectors, seen_counts[[heavy]], 10, 2, True)
        assert indptr[1] - indptr[0] >= 10 + seen_counts[heavy]

    def test_k_larger_than_candidates_expands_to_catalogue(
            self, tiny_dataset, tiny_mf_snapshot, tmp_path):
        _, snapshot = tiny_mf_snapshot
        index = build_ann_index(snapshot, tmp_path, nlist=4,
                                default_nprobe=1, seed=0)
        result = index.topk([0], k=tiny_dataset.num_items,
                            filter_seen=False)
        assert sorted(result.items[0].tolist()) == list(
            range(tiny_dataset.num_items))


class TestRecallFloor:
    def test_flagship_operating_point(self, yelp_retrieval, yelp_ivf):
        """The benchmark's qualifying point: recall@10 >= 0.95."""
        dataset, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        users = np.arange(dataset.num_users, dtype=np.int64)
        exact = ExactTopKIndex(snapshot).topk(users, k=10).items
        recall = overlap_at_k(exact, index.topk(users, k=10).items)
        assert recall >= 0.95

    def test_recall_monotone_in_nprobe(self, yelp_retrieval, yelp_ivf):
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        users = np.arange(dataset.num_users, dtype=np.int64)
        exact = ExactTopKIndex(snapshot).topk(users, k=10).items
        recalls = []
        for nprobe in (1, 2, 8, 16):
            index = IVFFlatIndex(snapshot, built.data, nprobe=nprobe)
            recalls.append(overlap_at_k(exact,
                                        index.topk(users, k=10).items))
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0


class TestSearchSemantics:
    def test_results_independent_of_batch_composition(self, yelp_retrieval,
                                                      yelp_ivf):
        """A user's ranked list cannot depend on who shares the batch.

        Item lists must match exactly; scores may drift in the last ulp
        because the scoring GEMM's row count follows the batch's group
        size — the same property the exact index has across request
        batch sizes (see ``docs/ann.md``).
        """
        _, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        alone = index.topk([7], k=10)
        together = index.topk(np.arange(64, dtype=np.int64), k=10)
        np.testing.assert_array_equal(alone.items[0], together.items[7])
        np.testing.assert_allclose(alone.scores[0], together.scores[7],
                                   rtol=1e-12, atol=0)

    def test_filter_seen_removes_train_items(self, yelp_retrieval,
                                             yelp_ivf):
        dataset, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        users = np.arange(dataset.num_users, dtype=np.int64)
        result = index.topk(users, k=10, filter_seen=True)
        for row, user in enumerate(users.tolist()):
            seen = set(dataset.train_items_by_user[user].tolist())
            assert not seen & set(result.items[row].tolist())

    def test_returned_scores_match_exact_values(self, yelp_retrieval,
                                                yelp_ivf):
        """Candidate re-scoring is exact arithmetic: every returned
        (user, item) score agrees with the exact index's score for the
        same pair to the last couple of ulp (GEMM row-count differs)."""
        dataset, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        users = np.arange(dataset.num_users, dtype=np.int64)
        exact_full = ExactTopKIndex(snapshot).topk(
            users, k=dataset.num_items, filter_seen=True)
        lookup = np.empty((dataset.num_users, dataset.num_items))
        rows = np.arange(dataset.num_users)[:, None]
        lookup[rows, exact_full.items] = exact_full.scores
        result = index.topk(users, k=10)
        expected = np.take_along_axis(lookup, result.items, axis=1)
        np.testing.assert_allclose(result.scores, expected, rtol=1e-12,
                                   atol=0)

    def test_input_validation(self, yelp_retrieval, yelp_ivf):
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        index = built
        with pytest.raises(ValueError, match="k must be positive"):
            index.topk([0], k=0)
        with pytest.raises(ValueError, match="user ids"):
            index.topk([dataset.num_users], k=5)
        with pytest.raises(ValueError, match="nprobe"):
            IVFFlatIndex(snapshot, built.data, nprobe=99)
        with pytest.raises(ValueError, match="chunk_users"):
            IVFFlatIndex(snapshot, built.data, chunk_users=0)


class TestListMajorLoop:
    """Per-list partial top-k + per-user merge against a dense oracle.

    The oracle is :class:`ExactTopKIndex` restricted to the ids
    ``tests/oracles.py::ivf_candidates_csr`` allows: every non-candidate is
    masked to ``-inf`` and the row is ranked.  The snapshot is hostile:
    three items from three different inverted lists share one embedding
    row, so their scores tie exactly across lists.
    """

    NLIST = 4

    @pytest.fixture(scope="class")
    def tied(self, tiny_mf_snapshot, tmp_path_factory):
        """(snapshot with the tied rows, {spill: index data})."""
        _, snapshot = tiny_mf_snapshot
        data = {spill: build_ann_index(
            snapshot, tmp_path_factory.mktemp(f"tied-{spill}"),
            nlist=self.NLIST, spill=spill, seed=0).data
            for spill in (1, 2, 3)}
        a, b, c = (int(data[1].list_ids(lst)[0]) for lst in range(3))
        items = np.array(snapshot.items)
        items[b] = items[c] = items[a]
        return with_items(snapshot, items), data

    @staticmethod
    def _oracle(snapshot, data, users, k, nprobe, filter_seen, width):
        num_items = snapshot.manifest.num_items
        k = min(k, num_items)
        full = ExactTopKIndex(snapshot, panel_width=width).topk(
            users, k=num_items, filter_seen=filter_seen)
        dense = np.empty((len(users), num_items))
        np.put_along_axis(dense, full.items, full.scores, axis=1)
        indptr, ids = ivf_candidates_csr(
            data,
            scoring_ready_users(snapshot.users[users], snapshot.scoring),
            np.diff(snapshot.seen_indptr)[users], k, nprobe, filter_seen,
            snapshot.scoring)
        allowed = np.zeros(dense.shape, dtype=bool)
        allowed[np.repeat(np.arange(len(users)), np.diff(indptr)), ids] = True
        dense[~allowed] = -np.inf
        top = rank_items(dense, k)
        return top, np.take_along_axis(dense, top, axis=1)

    @pytest.mark.parametrize("spill", [1, 2, 3])
    @pytest.mark.parametrize("nprobe", [1, 2, NLIST])
    def test_matches_restricted_exact(self, tied, spill, nprobe):
        snapshot, by_spill = tied
        data = by_spill[spill]
        assert data.max_spill == spill
        num_items = snapshot.manifest.num_items
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        # spill 2, k = num_items - 1, filter_seen once returned an id
        # twice in the -inf tail: a masked duplicate is still a duplicate
        for k in (1, 5, num_items - 1, num_items, 5 * num_items):
            for filter_seen in (True, False):
                want_items, want_scores = self._oracle(
                    snapshot, data, users, k, nprobe, filter_seen,
                    width=128)
                for chunk_users in (1, 7, 1024):
                    got = IVFFlatIndex(
                        snapshot, data, nprobe=nprobe,
                        chunk_users=chunk_users).topk(
                            users, k=k, filter_seen=filter_seen)
                    case = (k, filter_seen, chunk_users)
                    np.testing.assert_array_equal(got.items, want_items,
                                                  err_msg=str(case))
                    np.testing.assert_allclose(got.scores, want_scores,
                                               rtol=0, atol=1e-12,
                                               err_msg=str(case))
                    assert got.items.max() < num_items, case
                    ranked = np.sort(got.items, axis=1)
                    assert np.all(ranked[:, 1:] > ranked[:, :-1]), case

    def test_candidates_csr_ascending_and_deduplicated(self, tied):
        snapshot, by_spill = tied
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        indptr, ids = ivf_candidates_csr(
            by_spill[2],
            scoring_ready_users(snapshot.users[users], snapshot.scoring),
            np.diff(snapshot.seen_indptr)[users], 5, 2, True,
            snapshot.scoring)
        assert len(indptr) == len(users) + 1 and indptr[-1] == len(ids)
        for r in range(len(users)):
            assert np.all(np.diff(ids[indptr[r]:indptr[r + 1]]) > 0)

    def test_table_bytes_is_a_function_of_the_index(self, yelp_retrieval,
                                                    yelp_ivf):
        """Serving builds panels lazily; ``table_bytes`` counts them all
        up front, so it cannot depend on who served what before."""
        dataset, _, snapshot = yelp_retrieval
        _, built = yelp_ivf
        a = IVFFlatIndex(snapshot, built.data, nprobe=1)
        b = IVFFlatIndex(snapshot, built.data, nprobe=built.data.nlist)
        before = a.table_bytes
        assert b.table_bytes == before
        users = np.arange(dataset.num_users, dtype=np.int64)
        a.topk(users[:8], k=10)
        assert (a.table_bytes, b.table_bytes) == (before, before)
        b.topk(users, k=10)  # full probe: every list's panel gets built
        assert (a.table_bytes, b.table_bytes) == (before, before)
        assert all(panel is not None for panel in b._panels)
        assert (sum(panels.nbytes for panels, _ in b._panels)
                == before - built.data.table_bytes)


class TestServiceIntegration:
    def test_drop_in_index_backend(self, yelp_retrieval, yelp_ivf):
        _, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        service = RecommendationService(snapshot, index=index)
        recs = service.recommend([3, 14, 15, 14], k=5)
        assert len(recs) == 4
        assert recs[1].items.shape == (5,)
        # duplicate users share one cached answer
        np.testing.assert_array_equal(recs[1].items, recs[3].items)
        assert service.stats.cache_misses == 3

    def test_cache_keyed_on_ann_kind(self, yelp_retrieval, yelp_ivf):
        """An ANN service can never serve exact-index cache entries."""
        _, _, snapshot = yelp_retrieval
        _, index = yelp_ivf
        assert index.kind == "ivf"
        service = RecommendationService(snapshot, index=index)
        assert service._key(3, 10, True)[1] == "ivf"


class TestPersistence:
    def test_round_trip(self, yelp_retrieval, yelp_ivf):
        _, _, snapshot = yelp_retrieval
        path, built = yelp_ivf
        assert is_ann_index(path)
        loaded = load_ann_index(path, snapshot, verify=True)
        users = np.arange(64, dtype=np.int64)
        a, b = built.topk(users, k=10), loaded.topk(users, k=10)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_deterministic_builds_byte_identical(self, yelp_retrieval,
                                                 tmp_path):
        """Satellite acceptance: same snapshot + seed => same bytes."""
        _, _, snapshot = yelp_retrieval
        a, b = tmp_path / "a", tmp_path / "b"
        build_ann_index(snapshot, a, nlist=8, spill=2, seed=3)
        build_ann_index(snapshot, b, nlist=8, spill=2, seed=3)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_version(self, yelp_retrieval, tmp_path):
        _, _, snapshot = yelp_retrieval
        a = build_ann_index(snapshot, tmp_path / "a", nlist=8, seed=0)
        b = build_ann_index(snapshot, tmp_path / "b", nlist=8, seed=1)
        manifest_a = (tmp_path / "a" / "manifest.json").read_text()
        manifest_b = (tmp_path / "b" / "manifest.json").read_text()
        assert manifest_a != manifest_b

    def test_tamper_detection(self, yelp_retrieval, tmp_path):
        _, _, snapshot = yelp_retrieval
        build_ann_index(snapshot, tmp_path, nlist=8, seed=0)
        centroids = np.load(tmp_path / "centroids.npy")
        centroids[0, 0] += 1.0
        np.save(tmp_path / "centroids.npy", centroids)
        load_ann_index(tmp_path, snapshot)  # unverified load still works
        with pytest.raises(ValueError, match="content hash"):
            load_ann_index(tmp_path, snapshot, verify=True)

    def test_snapshot_mismatch_rejected(self, yelp_ivf, tiny_mf_snapshot):
        path, _ = yelp_ivf
        _, tiny_snapshot = tiny_mf_snapshot
        with pytest.raises(ValueError, match="built from snapshot"):
            load_ann_index(path, tiny_snapshot)

    def test_unknown_manifest_fields_rejected(self, yelp_retrieval,
                                              tmp_path):
        import json
        _, _, snapshot = yelp_retrieval
        build_ann_index(snapshot, tmp_path, nlist=8, seed=0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["surprise"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown fields"):
            load_ann_index(tmp_path, snapshot)

    @staticmethod
    def _rewrite_manifest(path, **fields):
        """Rewrite ``manifest.json`` in the on-disk format, fields added."""
        import json
        manifest = json.loads((path / "manifest.json").read_text())
        manifest.update(fields)
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def test_manifest_with_pq_null_still_loads(self, tiny_mf_snapshot,
                                               tmp_path):
        """Directories written while IVF-PQ existed carry ``"pq": null``;
        the loader accepts them, verified, and serves the same lists."""
        _, snapshot = tiny_mf_snapshot
        built = build_ann_index(snapshot, tmp_path, nlist=4, spill=2, seed=0)
        self._rewrite_manifest(tmp_path, pq=None)
        loaded = load_ann_index(tmp_path, snapshot, verify=True)
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        a, b = built.topk(users, k=10), loaded.topk(users, k=10)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_ivfpq_manifest_rejected_by_both_loaders(self, tiny_mf_snapshot,
                                                     tmp_path):
        _, snapshot = tiny_mf_snapshot
        build_ann_index(snapshot, tmp_path, nlist=4, seed=0)
        self._rewrite_manifest(tmp_path, kind="ivfpq", pq={"m": 4, "ks": 8})
        with pytest.raises(ValueError, match="'ivfpq'.*repro build-ann"):
            load_ann_index(tmp_path, snapshot)

    def test_missing_directory_reported(self, yelp_retrieval, tmp_path):
        _, _, snapshot = yelp_retrieval
        with pytest.raises(FileNotFoundError):
            load_ann_index(tmp_path / "nope", snapshot)
        assert not is_ann_index(tmp_path / "nope")


class TestIndexDataValidation:
    def test_csr_consistency_enforced(self):
        centroids = np.zeros((2, 4))
        with pytest.raises(ValueError, match="span"):
            IVFIndexData(centroids, np.array([0, 1, 3]),
                         np.array([0, 1]), num_items=2)
        with pytest.raises(ValueError, match="cover"):
            IVFIndexData(centroids, np.array([0, 1, 2]),
                         np.array([0, 0]), num_items=2)
        with pytest.raises(ValueError, match="out-of-range"):
            IVFIndexData(centroids, np.array([0, 1, 2]),
                         np.array([0, 5]), num_items=2)

    def test_default_nprobe_bounds(self):
        centroids = np.zeros((2, 4))
        with pytest.raises(ValueError, match="default_nprobe"):
            IVFIndexData(centroids, np.array([0, 1, 2]),
                         np.array([0, 1]), num_items=2, default_nprobe=3)
