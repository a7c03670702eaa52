"""Regression: chunked batched evaluation == per-user reference, exactly.

The chunked evaluator must be observationally identical to the per-user
oracle (``tests/oracles.py::evaluate_per_user``): same ranked lists, bit-identical per-user metric values, and
train-item masking preserved — across datasets, cutoffs, metric sets
and chunk sizes (including chunks that don't divide the user count).
"""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.eval import metrics as M
from repro.eval.evaluator import Evaluator, evaluate_scores
from repro.models.registry import get_model

from tests.oracles import evaluate_per_user

ALL_METRICS = ("recall", "ndcg", "precision", "hit", "map")


def _assert_identical(result_fast, result_ref):
    assert result_fast.metrics.keys() == result_ref.metrics.keys()
    np.testing.assert_array_equal(result_fast.evaluated_users,
                                  result_ref.evaluated_users)
    for key in result_ref.per_user:
        np.testing.assert_array_equal(
            result_fast.per_user[key], result_ref.per_user[key],
            err_msg=f"chunked path diverged from per-user oracle on {key}")
    for key, value in result_ref.metrics.items():
        assert result_fast.metrics[key] == value


class TestChunkedMatchesPerUser:
    @pytest.mark.parametrize("ks", [(20,), (5, 10, 20, 50), (1,)])
    def test_all_metrics_tiny(self, tiny_dataset, ks):
        model = get_model("mf", tiny_dataset, dim=8, rng=0)
        fast = Evaluator(tiny_dataset, ks=ks,
                         metric_names=ALL_METRICS).evaluate(model)
        ref = evaluate_per_user(model, tiny_dataset, ks=ks,
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("batch_users", [1, 7, 256, 10_000])
    def test_chunk_sizes(self, tiny_dataset, batch_users):
        """Odd chunk sizes (incl. size 1 and one-big-chunk) stay exact."""
        model = get_model("mf", tiny_dataset, dim=8, rng=1)
        fast = Evaluator(tiny_dataset, ks=(5, 20), metric_names=ALL_METRICS,
                         batch_users=batch_users).evaluate(model)
        ref = evaluate_per_user(model, tiny_dataset, ks=(5, 20),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)

    def test_realistic_dataset(self):
        dataset = load_dataset("yelp2018-small")
        model = get_model("lightgcn", dataset, dim=16, rng=2)
        fast = Evaluator(dataset, ks=(20,),
                         metric_names=ALL_METRICS).evaluate(model)
        ref = evaluate_per_user(model, dataset, ks=(20,),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)

    def test_k_larger_than_catalogue(self, tiny_dataset):
        """K > num_items clamps identically on both paths."""
        big_k = tiny_dataset.num_items + 37
        model = get_model("mf", tiny_dataset, dim=8, rng=3)
        fast = Evaluator(tiny_dataset, ks=(big_k,),
                         metric_names=ALL_METRICS).evaluate(model)
        ref = evaluate_per_user(model, tiny_dataset, ks=(big_k,),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)


class TestMaskingPreserved:
    def test_train_items_never_recommended(self, tiny_dataset):
        """The vectorized mask still removes every train interaction."""
        model = get_model("mf", tiny_dataset, dim=8, rng=4)
        evaluator = Evaluator(tiny_dataset, ks=(20,))
        users = evaluator._test_users
        scores = model.predict_scores(user_ids=users)
        evaluator._mask_train_items(scores, users)
        for row, u in enumerate(users):
            train_items = tiny_dataset.train_items_by_user[u]
            if len(train_items):
                assert np.all(np.isneginf(scores[row, train_items]))
        top = M.rank_items(scores, 20)
        for row, u in enumerate(users):
            banned = set(int(i) for i in tiny_dataset.train_items_by_user[u])
            assert banned.isdisjoint(int(i) for i in top[row])

    def test_arbitrary_user_order_uses_fallback(self, tiny_dataset, rng):
        """Non-contiguous user sets still mask correctly (generic path)."""
        model = get_model("mf", tiny_dataset, dim=8, rng=6)
        evaluator = Evaluator(tiny_dataset, ks=(20,))
        users = evaluator._test_users.copy()
        rng.shuffle(users)
        users = users[::2]
        scores = model.predict_scores(user_ids=users)
        evaluator._mask_train_items(scores, users)
        for row, u in enumerate(users):
            train_items = tiny_dataset.train_items_by_user[u]
            if len(train_items):
                assert np.all(np.isneginf(scores[row, train_items]))
            kept = np.setdiff1d(np.arange(tiny_dataset.num_items),
                                np.asarray(train_items, dtype=np.int64))
            assert np.all(np.isfinite(scores[row, kept]))

    def test_same_ranked_lists(self, tiny_dataset):
        """The vectorized mask ranks like the per-user scatter."""
        model = get_model("mf", tiny_dataset, dim=8, rng=5)
        evaluator = Evaluator(tiny_dataset, ks=(20,))
        users = evaluator._test_users
        scores = model.predict_scores(user_ids=users)
        reference = scores.copy()
        evaluator._mask_train_items(scores, users)
        for row, u in enumerate(users):
            reference[row, tiny_dataset.train_items_by_user[u]] = -np.inf
        np.testing.assert_array_equal(M.rank_items(scores, 20),
                                      M.rank_items(reference, 20))


class TestEvaluateScores:
    def test_precomputed_scores_roundtrip(self, tiny_dataset, rng):
        scores = rng.normal(
            size=(tiny_dataset.num_users, tiny_dataset.num_items))
        fast = evaluate_scores(scores, tiny_dataset, ks=(10,),
                               metric_names=ALL_METRICS)

        class _Fixed:
            def predict_scores(self, user_ids):
                return scores[user_ids].copy()

        ref = evaluate_per_user(_Fixed(), tiny_dataset, ks=(10,),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)
