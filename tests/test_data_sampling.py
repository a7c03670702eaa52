"""Negative samplers: coverage, noise rates, in-batch construction."""

import numpy as np
import pytest

from repro.data import (InBatchSampler, PopularityNegativeSampler,
                        UniformNegativeSampler)
from repro.train import TrainConfig
from tests.oracles import positive_mask


class TestUniformSampler:
    def test_epoch_covers_all_pairs(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=4,
                                         batch_size=64, rng=0)
        seen = []
        for batch in sampler.epoch():
            assert batch.negatives.shape == (len(batch), 4)
            seen.extend(zip(batch.users.tolist(), batch.positives.tolist()))
        assert len(seen) == tiny_dataset.num_train
        assert set(seen) == {(int(u), int(i))
                             for u, i in tiny_dataset.train_pairs}

    def test_shuffles_between_epochs(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=2,
                                         batch_size=10_000, rng=0)
        first = next(iter(sampler.epoch())).users.copy()
        second = next(iter(sampler.epoch())).users.copy()
        assert not np.array_equal(first, second)

    def test_clean_negatives_avoid_positives(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=16,
                                         batch_size=10_000, rng=0)
        batch = next(iter(sampler.epoch()))
        mask = positive_mask(tiny_dataset)
        collisions = mask[batch.users[:, None], batch.negatives]
        assert collisions.mean() < 0.01

    def test_rnoise_rate_matches_definition(self, tiny_dataset):
        """Empirical false-negative rate must match the rnoise formula.

        Each positive item is rnoise times as likely as each negative
        item, so for user u the per-slot rate is
        r*deg / (r*deg + (n_items - deg)); the batch aggregates users
        proportionally to their degree.
        """
        rnoise = 3.0
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=200,
                                         batch_size=10_000, rnoise=rnoise,
                                         rng=0)
        batch = next(iter(sampler.epoch()))
        mask = positive_mask(tiny_dataset)
        actual = mask[batch.users[:, None], batch.negatives].mean()
        deg = tiny_dataset.user_degrees()[batch.users].astype(float)
        expected = (rnoise * deg / (rnoise * deg
                                    + tiny_dataset.num_items - deg)).mean()
        assert actual == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("rnoise", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_rnoise_must_be_finite(self, tiny_dataset, rnoise):
        """NaN passes ``rnoise < 0`` and then samples as if it were 0;
        an infinite weight has no sampling distribution."""
        with pytest.raises(ValueError, match="rnoise"):
            UniformNegativeSampler(tiny_dataset, rnoise=rnoise)
        with pytest.raises(ValueError, match="rnoise"):
            TrainConfig(rnoise=rnoise)

    def test_rnoise_zero_equals_clean(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=8,
                                         batch_size=256, rnoise=0.0, rng=0)
        batch = next(iter(sampler.epoch()))
        mask = positive_mask(tiny_dataset)
        assert mask[batch.users[:, None], batch.negatives].mean() < 0.01

    def test_monotone_in_rnoise(self, tiny_dataset):
        rates = []
        for rnoise in (0.5, 2.0, 8.0):
            sampler = UniformNegativeSampler(
                tiny_dataset, n_negatives=100, batch_size=10_000,
                rnoise=rnoise, rng=1)
            batch = next(iter(sampler.epoch()))
            mask = positive_mask(tiny_dataset)
            rates.append(mask[batch.users[:, None], batch.negatives].mean())
        assert rates[0] < rates[1] < rates[2]

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            UniformNegativeSampler(tiny_dataset, n_negatives=0)
        with pytest.raises(ValueError):
            UniformNegativeSampler(tiny_dataset, rnoise=-1.0)
        with pytest.raises(ValueError):
            UniformNegativeSampler(tiny_dataset, batch_size=0)

    def test_deterministic_under_seed(self, tiny_dataset):
        def draw(seed):
            s = UniformNegativeSampler(tiny_dataset, n_negatives=4,
                                       batch_size=128, rng=seed)
            return next(iter(s.epoch()))
        a, b = draw(7), draw(7)
        np.testing.assert_array_equal(a.negatives, b.negatives)
        np.testing.assert_array_equal(a.users, b.users)


class TestExactRedraw:
    """The one-shot masked redraw: exact, collision-free, and uniform."""

    def test_redraw_leaves_zero_collisions(self, tiny_dataset):
        """Unlike the old bounded rejection loop, the rank-mapped redraw
        can never leave a collision (no user in tiny is full-degree)."""
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=64,
                                         batch_size=10_000, rng=0)
        mask = positive_mask(tiny_dataset)
        for _ in range(3):
            batch = next(iter(sampler.epoch()))
            assert mask[batch.users[:, None], batch.negatives].sum() == 0

    def test_distribution_uniform_over_complement(self, tiny_dataset):
        """Fixed-seed statistical pin: per-item frequencies over the
        heaviest user's complement match the uniform law (chi-square
        statistic within 3 sigma of its dof, no item starved)."""
        deg = tiny_dataset.user_degrees()
        user = int(np.argmax(deg))
        complement = np.setdiff1d(np.arange(tiny_dataset.num_items),
                                  tiny_dataset.train_items_by_user[user])
        sampler = UniformNegativeSampler(tiny_dataset, n_negatives=200,
                                         batch_size=10_000, rng=5)
        draws = []
        for _ in range(30):
            batch = next(iter(sampler.epoch()))
            draws.append(batch.negatives[batch.users == user].ravel())
        draws = np.concatenate(draws)
        counts = np.bincount(draws, minlength=tiny_dataset.num_items)
        assert counts[tiny_dataset.train_items_by_user[user]].sum() == 0
        assert (counts[complement] > 0).all()
        expected = len(draws) / len(complement)
        chi2 = ((counts[complement] - expected) ** 2 / expected).sum()
        dof = len(complement) - 1
        assert abs(chi2 - dof) <= 3.0 * np.sqrt(2.0 * dof), \
            f"chi2={chi2:.1f} vs dof={dof} — not uniform over complement"

    def test_full_degree_user_slots_left_untouched(self):
        """A user whose positives cover the catalogue has no complement;
        the redraw must leave those slots alone instead of crashing."""
        from repro.data import InteractionDataset
        pairs = np.array([[0, i] for i in range(3)] + [[1, 0]])
        ds = InteractionDataset(2, 3, pairs, np.array([[1, 1]]))
        sampler = UniformNegativeSampler(ds, n_negatives=8, batch_size=16,
                                         rng=0)
        batch = next(iter(sampler.epoch()))
        assert batch.negatives.shape == (len(batch), 8)
        # user 1's slots are clean (complement {1, 2} exists)
        clean = batch.negatives[batch.users == 1]
        assert not np.isin(clean, [0]).any()

    def test_sorted_padded_positives_contract(self, tiny_dataset):
        padded, degrees = tiny_dataset.batch_sorted_positives(
            np.arange(tiny_dataset.num_users))
        for u in range(0, tiny_dataset.num_users, 7):
            items = np.unique(tiny_dataset.train_items_by_user[u])
            np.testing.assert_array_equal(padded[u, :degrees[u]], items)
            assert (padded[u, degrees[u]:] > tiny_dataset.num_items
                    + padded.shape[1]).all()


class TestPopularitySampler:
    def test_popular_items_oversampled(self, tiny_dataset):
        sampler = PopularityNegativeSampler(tiny_dataset, n_negatives=64,
                                            batch_size=10_000, beta=1.0,
                                            rng=0)
        batch = next(iter(sampler.epoch()))
        counts = np.bincount(batch.negatives.ravel(),
                             minlength=tiny_dataset.num_items)
        pop = tiny_dataset.item_popularity
        top = np.argsort(pop)[-10:]
        bottom = np.argsort(pop)[:10]
        assert counts[top].mean() > counts[bottom].mean()


class TestInBatchSampler:
    def test_negatives_are_other_positives(self, tiny_dataset):
        sampler = InBatchSampler(tiny_dataset, batch_size=32, rng=0)
        batch = next(iter(sampler.epoch()))
        b = len(batch)
        assert batch.negatives.shape == (b, b - 1)
        for row in range(b):
            expected = np.delete(batch.positives, row)
            np.testing.assert_array_equal(np.sort(batch.negatives[row]),
                                          np.sort(expected))

    def test_own_positive_excluded(self, tiny_dataset):
        sampler = InBatchSampler(tiny_dataset, batch_size=16, rng=0)
        batch = next(iter(sampler.epoch()))
        for row in range(len(batch)):
            # the row's own positive appears only if duplicated in batch
            own = batch.positives[row]
            dup_count = (batch.positives == own).sum() - 1
            assert (batch.negatives[row] == own).sum() == dup_count

    def test_single_pair_batch_skipped(self):
        from repro.data import InteractionDataset
        ds = InteractionDataset(2, 3, np.array([[0, 0]]),
                                np.array([[0, 1]]))
        sampler = InBatchSampler(ds, batch_size=8, rng=0)
        assert list(sampler.epoch()) == []
