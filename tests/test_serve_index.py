"""Top-K indexes: evaluator bit-exactness and quantized fidelity."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.eval.metrics import rank_items
from repro.models import get_model
from repro.serve import (ExactTopKIndex, QuantizedTopKIndex, build_index,
                         export_snapshot)


def evaluator_rankings(model, dataset, k):
    """Ranked lists exactly as the Evaluator computes them."""
    ev = Evaluator(dataset, ks=(k,))
    tops = []
    for lo in range(0, len(ev._test_users), ev.batch_users):
        users = ev._test_users[lo:lo + ev.batch_users]
        scores = model.predict_scores(user_ids=users)
        ev._mask_train_items(scores, users)
        tops.append(rank_items(scores, k))
    return ev._test_users, np.concatenate(tops)


class TestExactIndex:
    def test_matches_evaluator_bit_for_bit(self, tiny_dataset,
                                           tiny_mf_snapshot):
        """Acceptance: online top-K == offline Evaluator rankings."""
        model, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        users, expected = evaluator_rankings(model, tiny_dataset, k=20)
        result = index.topk(users, k=20, filter_seen=True)
        np.testing.assert_array_equal(result.items, expected)

    @pytest.mark.parametrize("model_name", ["lightgcn", "simplex", "cml"])
    def test_matches_evaluator_across_scorings(self, tiny_dataset, tmp_path,
                                               model_name):
        """inner / cosine / euclidean scoring all stay evaluator-exact."""
        model = get_model(model_name, tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path)
        index = ExactTopKIndex(snapshot)
        users, expected = evaluator_rankings(model, tiny_dataset, k=20)
        result = index.topk(users, k=20, filter_seen=True)
        np.testing.assert_array_equal(result.items, expected)

    def test_chunking_invariance(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        whole = ExactTopKIndex(snapshot, chunk_users=1024).topk(users, k=10)
        sliced = ExactTopKIndex(snapshot, chunk_users=7).topk(users, k=10)
        np.testing.assert_array_equal(whole.items, sliced.items)
        np.testing.assert_array_equal(whole.scores, sliced.scores)

    def test_filter_seen_removes_train_items(self, tiny_dataset,
                                             tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        users = np.arange(tiny_dataset.num_users, dtype=np.int64)
        filtered = index.topk(users, k=10, filter_seen=True)
        for row, u in enumerate(users):
            seen = set(tiny_dataset.train_items_by_user[u].tolist())
            assert not seen & set(filtered.items[row].tolist())

    def test_unfiltered_ranks_full_catalogue(self, tiny_dataset,
                                             tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        heavy = max(range(tiny_dataset.num_users),
                    key=lambda u: len(tiny_dataset.train_items_by_user[u]))
        unfiltered = index.topk([heavy], k=tiny_dataset.num_items,
                                filter_seen=False)
        assert sorted(unfiltered.items[0].tolist()) == list(
            range(tiny_dataset.num_items))

    def test_result_metadata(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        result = ExactTopKIndex(snapshot).topk([3, 1], k=5)
        assert len(result) == 2
        assert result.k == 5 and result.filtered_seen is True
        np.testing.assert_array_equal(result.user_ids, [3, 1])
        # scores come back sorted best-first
        assert np.all(np.diff(result.scores, axis=1) <= 0)

    def test_k_clipped_to_catalogue(self, tiny_dataset, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        result = ExactTopKIndex(snapshot).topk([0], k=10_000,
                                               filter_seen=False)
        assert result.items.shape == (1, tiny_dataset.num_items)

    def test_input_validation(self, tiny_dataset, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = ExactTopKIndex(snapshot)
        with pytest.raises(ValueError, match="k must be positive"):
            index.topk([0], k=0)
        with pytest.raises(ValueError, match="user ids"):
            index.topk([tiny_dataset.num_users], k=5)
        with pytest.raises(ValueError, match="user ids"):
            index.topk([-1], k=5)
        with pytest.raises(ValueError, match="chunk_users"):
            ExactTopKIndex(snapshot, chunk_users=0)


class TestQuantizedIndex:
    def test_high_overlap_on_tiny(self, tiny_mf_snapshot):
        from repro.eval.metrics import overlap_at_k
        _, snapshot = tiny_mf_snapshot
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        overlap = overlap_at_k(
            ExactTopKIndex(snapshot).topk(users, k=10).items,
            QuantizedTopKIndex(snapshot).topk(users, k=10).items)
        assert overlap >= 0.95

    def test_acceptance_overlap_on_yelp(self, tmp_path):
        """Acceptance: >= 0.95 recall@10 overlap vs exact on yelp2018-small
        for a trained checkpoint (shared ``overlap_at_k`` metric)."""
        from repro.data import load_dataset
        from repro.eval.metrics import overlap_at_k
        from repro.losses import get_loss
        from repro.train import TrainConfig, train_model

        dataset = load_dataset("yelp2018-small")
        model = get_model("mf", dataset, dim=64, rng=0)
        config = TrainConfig(epochs=3, batch_size=1024, n_negatives=64,
                             eval_every=0, patience=0, seed=0)
        train_model(model, get_loss("bsl"), dataset, config)
        snapshot = export_snapshot(model, dataset, tmp_path)
        users = np.arange(dataset.num_users, dtype=np.int64)
        overlap = overlap_at_k(
            ExactTopKIndex(snapshot).topk(users, k=10).items,
            QuantizedTopKIndex(snapshot).topk(users, k=10).items)
        assert overlap >= 0.95

    def test_table_is_int8_and_smaller(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = QuantizedTopKIndex(snapshot)
        assert index.scorer._quantized.dtype == np.int8
        assert index.table_bytes < np.asarray(snapshot.items).nbytes / 4

    def test_respects_filter_seen(self, tiny_dataset, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        index = QuantizedTopKIndex(snapshot)
        result = index.topk(np.arange(tiny_dataset.num_users), k=10)
        for row in range(tiny_dataset.num_users):
            seen = set(tiny_dataset.train_items_by_user[row].tolist())
            assert not seen & set(result.items[row].tolist())

    def test_item_chunking_invariance(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        big = QuantizedTopKIndex(snapshot, chunk_items=4096).topk(users, k=10)
        small = QuantizedTopKIndex(snapshot, chunk_items=13).topk(users, k=10)
        np.testing.assert_array_equal(big.items, small.items)

    def test_euclidean_scoring_supported(self, tiny_dataset, tmp_path):
        model = get_model("cml", tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path)
        exact = ExactTopKIndex(snapshot).topk(np.arange(8), k=5)
        quant = QuantizedTopKIndex(snapshot).topk(np.arange(8), k=5)
        # approximate, but the top item should almost always agree at dim 8
        agree = np.mean(exact.items[:, 0] == quant.items[:, 0])
        assert agree >= 0.5


class TestBuildIndex:
    def test_by_kind(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        assert isinstance(build_index(snapshot, "exact"), ExactTopKIndex)
        assert isinstance(build_index(snapshot, "quantized"),
                          QuantizedTopKIndex)
        with pytest.raises(KeyError):
            build_index(snapshot, "faiss")
