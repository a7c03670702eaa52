"""Regression: chunked batched evaluation == per-user reference, exactly.

The chunked evaluator must be observationally identical to the per-user
oracle (``tests/oracles.py::evaluate_per_user``): same ranked lists, bit-identical per-user metric values, and
train-item masking preserved — across datasets, cutoffs, metric sets
and chunk sizes (including chunks that don't divide the user count).
"""

import sys
import threading

import numpy as np
import pytest

from repro.data import InteractionDataset, load_dataset
from repro.data.source import (ShardedInteractionSource,
                               write_interaction_shards)
from repro.eval import metrics as M
from repro.eval.evaluator import Evaluator, evaluate_scores
from repro.eval.masking import mask_seen_items
from repro.losses import get_loss
from repro.models.registry import get_model
from repro.tensor import is_grad_enabled, parallel
from repro.train import TrainConfig, Trainer

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
        scores = model.scoring_tables().scores(users)
        mask_seen_items(scores, *tiny_dataset.train_csr(), users)
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
        scores = model.scoring_tables().scores(users)
        mask_seen_items(scores, *tiny_dataset.train_csr(), users)
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
        scores = model.scoring_tables().scores(users)
        reference = scores.copy()
        mask_seen_items(scores, *tiny_dataset.train_csr(), users)
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
            def scoring_tables(self):
                return self

            def scores(self, user_ids):
                return scores[user_ids].copy()

        ref = evaluate_per_user(_Fixed(), tiny_dataset, ks=(10,),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)

    def test_duplicate_test_pair_counts_once(self):
        """A held-out pair listed twice is one relevant item, as in the
        per-user metric functions: user 0 recalls its one item fully."""
        dataset = InteractionDataset(
            2, 4, [[0, 0], [1, 1]], [[0, 2], [0, 2], [1, 3]], name="dup")
        scores = np.array([[0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]])

        class _Fixed:
            def scoring_tables(self):
                return self

            def scores(self, user_ids):
                return scores[user_ids].copy()

        fast = evaluate_scores(scores, dataset, ks=(2,),
                               metric_names=ALL_METRICS)
        _assert_identical(fast, evaluate_per_user(
            _Fixed(), dataset, ks=(2,), metric_names=ALL_METRICS))
        np.testing.assert_array_equal(fast.per_user["recall@2"], [1.0, 1.0])
        np.testing.assert_array_equal(fast.per_user["ndcg@2"], [1.0, 1.0])


class TestInteractionSource:
    """An out-of-core source evaluates its own held-out pairs."""

    def test_same_per_user_arrays_as_the_dataset(self, tiny_dataset,
                                                 tmp_path):
        source = ShardedInteractionSource(
            write_interaction_shards(tiny_dataset, tmp_path).path)
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        _assert_identical(
            Evaluator(source, ks=(5, 20),
                      metric_names=ALL_METRICS).evaluate(model),
            Evaluator(tiny_dataset, ks=(5, 20),
                      metric_names=ALL_METRICS).evaluate(model))

    def test_trainer_evaluates_a_source(self, tiny_dataset, tmp_path):
        source = write_interaction_shards(tiny_dataset, tmp_path)
        model = get_model("mf", tiny_dataset, dim=8, rng=0)
        result = Trainer(model, get_loss("bsl"), source, TrainConfig(
            epochs=2, batch_size=64, n_negatives=8, eval_every=1)).fit()
        assert [epoch for epoch, _ in result.eval_history] == [1, 2]
        assert set(result.final_metrics) == {"recall@20", "ndcg@20"}


class TestWorkerPool:
    """The chunks fan out over ``parallel.workers()`` workers; the split
    into sub-chunks and the thread interleaving must not show."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    @pytest.mark.parametrize("batch_users", [1, 7, 256])
    def test_any_core_count_matches_oracle(self, tiny_dataset, monkeypatch,
                                           cores, batch_users):
        monkeypatch.setattr(parallel, "workers", lambda: cores)
        model = get_model("mf", tiny_dataset, dim=8, rng=7)
        fast = Evaluator(tiny_dataset, ks=(5, 20), metric_names=ALL_METRICS,
                         batch_users=batch_users).evaluate(model)
        ref = evaluate_per_user(model, tiny_dataset, ks=(5, 20),
                                metric_names=ALL_METRICS)
        _assert_identical(fast, ref)

    def test_more_workers_than_cores_under_fast_switching(
            self, tiny_dataset, monkeypatch):
        """Sixteen workers of one user each, switching every microsecond:
        a lost or misplaced ``per_user`` write breaks the oracle match."""
        monkeypatch.setattr(parallel, "workers", lambda: 16)
        model = get_model("mf", tiny_dataset, dim=8, rng=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fast = Evaluator(tiny_dataset, ks=(5, 20),
                             metric_names=ALL_METRICS,
                             batch_users=16).evaluate(model)
        finally:
            sys.setswitchinterval(interval)
        _assert_identical(fast, evaluate_per_user(
            model, tiny_dataset, ks=(5, 20), metric_names=ALL_METRICS))

    def test_propagates_once_on_the_calling_thread(self, tiny_dataset,
                                                   monkeypatch):
        monkeypatch.setattr(parallel, "workers", lambda: 4)
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        threads = []
        real = model.propagate

        def counting():
            threads.append(threading.current_thread())
            return real()

        monkeypatch.setattr(model, "propagate", counting)
        Evaluator(tiny_dataset, ks=(20,), batch_users=8).evaluate(model)
        assert threads == [threading.current_thread()]

    @pytest.mark.parametrize("training", [True, False])
    def test_training_flag_and_grad_mode_unchanged(self, tiny_dataset,
                                                   monkeypatch, training):
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        model = get_model("lightgcn", tiny_dataset, dim=8, rng=0)
        model.train() if training else model.eval()
        Evaluator(tiny_dataset, ks=(20,), batch_users=8).evaluate(model)
        assert model.training is training
        assert is_grad_enabled()

    def test_chunk_error_propagates_and_no_worker_survives(
            self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        calls = []
        real = M.rank_items

        def failing(scores, k):
            calls.append(None)
            if len(calls) >= 3:
                raise RuntimeError("chunk failed")
            return real(scores, k)

        monkeypatch.setattr(M, "rank_items", failing)
        model = get_model("mf", tiny_dataset, dim=8, rng=0)
        with pytest.raises(RuntimeError, match="chunk failed"):
            Evaluator(tiny_dataset, ks=(20,), batch_users=4).evaluate(model)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("evaluator")]
