"""Splitting utilities."""

import numpy as np
import pytest

from repro.data import ratio_split, leave_one_out_split


@pytest.fixture()
def pairs(rng):
    rows = []
    for user in range(20):
        items = rng.choice(50, size=rng.integers(2, 12), replace=False)
        rows.extend((user, i) for i in items)
    return np.asarray(rows, dtype=np.int64)


class TestRatioSplit:
    def test_partition_is_exact(self, pairs):
        ds = ratio_split(pairs, 20, 50, test_fraction=0.25, rng=0)
        all_pairs = {(int(u), int(i)) for u, i in pairs}
        train = {(int(u), int(i)) for u, i in ds.train_pairs}
        test = {(int(u), int(i)) for u, i in ds.test_pairs}
        assert train | test == all_pairs
        assert not train & test

    def test_every_user_keeps_training_items(self, pairs):
        ds = ratio_split(pairs, 20, 50, test_fraction=0.5, rng=0)
        deg = ds.user_degrees()
        for user in np.unique(pairs[:, 0]):
            assert deg[user] >= 1

    def test_fraction_respected(self, pairs):
        ds = ratio_split(pairs, 20, 50, test_fraction=0.25, rng=0)
        frac = ds.num_test / (ds.num_test + ds.num_train)
        assert 0.15 < frac < 0.4

    def test_single_interaction_users_stay_in_train(self):
        pairs = np.array([[0, 3], [1, 2], [1, 4]])
        ds = ratio_split(pairs, 2, 5, test_fraction=0.5, rng=0)
        assert len(ds.train_items_by_user[0]) == 1
        assert len(ds.test_items_by_user[0]) == 0

    def test_deterministic(self, pairs):
        a = ratio_split(pairs, 20, 50, rng=7)
        b = ratio_split(pairs, 20, 50, rng=7)
        np.testing.assert_array_equal(a.test_pairs, b.test_pairs)

    def test_validation(self, pairs):
        with pytest.raises(ValueError):
            ratio_split(pairs, 20, 50, test_fraction=0.0)


class TestLeaveOneOut:
    def test_one_test_item_per_eligible_user(self, pairs):
        ds = leave_one_out_split(pairs, 20, 50, rng=0)
        for user in np.unique(pairs[:, 0]):
            assert len(ds.test_items_by_user[user]) == 1

    def test_partition_is_exact(self, pairs):
        ds = leave_one_out_split(pairs, 20, 50, rng=0)
        assert ds.num_train + ds.num_test == len(pairs)


class TestValidationSplit:
    def test_partition_of_training_set(self, tiny_dataset):
        from repro.data import validation_split
        fit, val = validation_split(tiny_dataset, fraction=0.2, rng=0)
        train = {(int(u), int(i)) for u, i in fit.train_pairs}
        held = {(int(u), int(i)) for u, i in val.test_pairs}
        original = {(int(u), int(i)) for u, i in tiny_dataset.train_pairs}
        assert train | held == original
        assert not train & held

    def test_test_split_untouched(self, tiny_dataset):
        from repro.data import validation_split
        fit, _ = validation_split(tiny_dataset, fraction=0.2, rng=0)
        np.testing.assert_array_equal(fit.test_pairs,
                                      tiny_dataset.test_pairs)

    def test_val_dataset_shares_training_set(self, tiny_dataset):
        from repro.data import validation_split
        fit, val = validation_split(tiny_dataset, fraction=0.2, rng=0)
        np.testing.assert_array_equal(fit.train_pairs, val.train_pairs)

    def test_composes_with_trainer_early_stopping(self, tiny_dataset):
        from repro.data import validation_split
        from repro.eval import Evaluator
        from repro.losses import get_loss
        from repro.models import MF
        from repro.train import TrainConfig, Trainer
        fit, val = validation_split(tiny_dataset, fraction=0.2, rng=0)
        model = MF(fit.num_users, fit.num_items, dim=8, rng=0)
        cfg = TrainConfig(epochs=6, batch_size=256, n_negatives=8,
                          learning_rate=5e-2, eval_every=2, patience=2,
                          seed=0)
        trainer = Trainer(model, get_loss("sl", tau=0.3), fit, cfg,
                          evaluator=Evaluator(val, ks=(20,)))
        result = trainer.fit()
        assert result.eval_history  # early stopping watched validation

    def test_fraction_validation(self, tiny_dataset):
        from repro.data import validation_split
        with pytest.raises(ValueError):
            validation_split(tiny_dataset, fraction=0.0)
