"""Top-K index: evaluator bit-exactness."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models import get_model
from repro.serve import ExactTopKIndex, export_snapshot


def evaluator_rankings(model, dataset, k):
    """Ranked lists exactly as the Evaluator computes them."""
    ev = Evaluator(dataset, ks=(k,))
    return ev._test_users, ev.top_items(model, k)


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

