"""Diversity metrics: coverage, Gini, novelty."""

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.eval.diversity import (diversity_report, gini_index,
                                  item_coverage, mean_novelty,
                                  recommendation_counts)

from tests.oracles import recommendation_counts_per_user


class _FixedModel:
    """Recommends the same fixed scores to everyone."""

    training = False

    def __init__(self, scores):
        self._scores = scores

    def eval(self):
        return self

    def train(self):
        return self

    def scoring_tables(self):
        return self

    def scores(self, user_ids=None):
        if user_ids is None:
            return self._scores.copy()
        return self._scores[np.asarray(user_ids)].copy()


@pytest.fixture()
def toy_dataset():
    train = np.array([[0, 0], [0, 1], [1, 0], [2, 2]])
    test = np.array([[0, 2], [1, 1], [2, 0]])
    return InteractionDataset(3, 4, train, test)


class TestRecommendationCounts:
    def test_counts_sum_to_users_times_k(self, toy_dataset, rng):
        scores = rng.random((3, 4))
        counts = recommendation_counts(_FixedModel(scores), toy_dataset,
                                       k=2)
        assert counts.sum() == 3 * 2

    def test_train_items_excluded(self, toy_dataset):
        scores = np.zeros((3, 4))
        scores[:, 0] = 10.0  # item 0 is train-positive for users 0, 1
        counts = recommendation_counts(_FixedModel(scores), toy_dataset,
                                       k=1)
        assert counts[0] == 1  # only user 2 can receive item 0

    @pytest.mark.parametrize("batch_users", [7, 256])
    def test_matches_per_user_masking(self, tiny_dataset, batch_users):
        from repro.models import MF
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=4)
        np.testing.assert_array_equal(
            recommendation_counts(model, tiny_dataset, k=10,
                                  batch_users=batch_users),
            recommendation_counts_per_user(model, tiny_dataset, k=10,
                                           batch_users=batch_users))


class TestGini:
    def test_uniform_exposure_zero(self):
        assert gini_index(np.full(10, 5)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_exposure_near_one(self):
        counts = np.zeros(100)
        counts[0] = 1000
        assert gini_index(counts) > 0.9

    def test_zero_counts_safe(self):
        assert gini_index(np.zeros(5)) == 0.0

    def test_monotone_in_concentration(self):
        flat = np.array([5, 5, 5, 5])
        skew = np.array([17, 1, 1, 1])
        assert gini_index(skew) > gini_index(flat)


class TestCoverageNovelty:
    def test_coverage_fraction(self):
        counts = np.array([3, 0, 1, 0])
        assert item_coverage(counts) == pytest.approx(0.5)

    def test_novelty_higher_for_tail_recs(self, toy_dataset):
        # item 0 is the most popular; recommending only it = low novelty
        popular_only = np.zeros(4)
        popular_only[0] = 6
        tail_only = np.zeros(4)
        tail_only[3] = 6  # item 3 has zero training interactions
        assert (mean_novelty(tail_only, toy_dataset)
                > mean_novelty(popular_only, toy_dataset))

    def test_report_keys(self, toy_dataset, rng):
        report = diversity_report(_FixedModel(rng.random((3, 4))),
                                  toy_dataset, k=2)
        assert set(report) == {"coverage@2", "gini@2", "novelty@2"}

    def test_report_on_trained_model(self, tiny_dataset):
        from repro.losses import get_loss
        from repro.models import MF
        from repro.train import TrainConfig, train_model
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        train_model(model, get_loss("sl", tau=0.3), tiny_dataset,
                    TrainConfig(epochs=5, batch_size=256, n_negatives=16,
                                learning_rate=5e-2, seed=0))
        report = diversity_report(model, tiny_dataset, k=10)
        assert 0 < report["coverage@10"] <= 1
        assert 0 <= report["gini@10"] <= 1
        assert report["novelty@10"] > 0
