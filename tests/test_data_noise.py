"""Positive-noise injection (RQ3 substrate)."""

import numpy as np
import pytest

from repro.data import inject_positive_noise, positive_noise_rate


class TestInjection:
    def test_zero_ratio_is_identity(self, tiny_dataset):
        assert inject_positive_noise(tiny_dataset, 0.0) is tiny_dataset

    def test_achieved_rate_matches_request(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.3, rng=0)
        achieved = positive_noise_rate(tiny_dataset, noisy)
        # requested 30% extra => fake fraction 0.3/1.3 ~= 0.23
        assert achieved == pytest.approx(0.3 / 1.3, abs=0.04)

    def test_test_split_untouched(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.4, rng=0)
        np.testing.assert_array_equal(noisy.test_pairs,
                                      tiny_dataset.test_pairs)

    def test_fakes_avoid_true_positives_and_test_items(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.4, rng=0)
        clean_set = {(int(u), int(i)) for u, i in tiny_dataset.train_pairs}
        test_set = {(int(u), int(i)) for u, i in tiny_dataset.test_pairs}
        fakes = [(int(u), int(i)) for u, i in noisy.train_pairs
                 if (int(u), int(i)) not in clean_set]
        assert fakes, "expected some injected pairs"
        assert not set(fakes) & test_set

    def test_injection_proportional_to_degree(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.5, rng=0)
        clean_deg = tiny_dataset.user_degrees()
        noisy_deg = noisy.user_degrees()
        extra = noisy_deg - clean_deg
        # heavier users receive more fakes
        heavy = clean_deg >= np.median(clean_deg)
        assert extra[heavy].mean() >= extra[~heavy].mean()

    def test_rejects_out_of_range_ratio(self, tiny_dataset):
        with pytest.raises(ValueError):
            inject_positive_noise(tiny_dataset, -0.1)
        with pytest.raises(ValueError):
            inject_positive_noise(tiny_dataset, 1.5)

    def test_deterministic_under_seed(self, tiny_dataset):
        a = inject_positive_noise(tiny_dataset, 0.2, rng=5)
        b = inject_positive_noise(tiny_dataset, 0.2, rng=5)
        np.testing.assert_array_equal(a.train_pairs, b.train_pairs)

    def test_ground_truth_attributes_carried(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.2, rng=0)
        assert hasattr(noisy, "user_clusters")
        np.testing.assert_array_equal(noisy.user_clusters,
                                      tiny_dataset.user_clusters)

    def test_name_records_noise_level(self, tiny_dataset):
        noisy = inject_positive_noise(tiny_dataset, 0.25, rng=0)
        assert "pnoise0.25" in noisy.name


class TestRateMeasurement:
    def test_rate_zero_for_identical(self, tiny_dataset):
        assert positive_noise_rate(tiny_dataset, tiny_dataset) == 0.0

    def test_rate_increases_with_ratio(self, tiny_dataset):
        r1 = positive_noise_rate(
            tiny_dataset, inject_positive_noise(tiny_dataset, 0.1, rng=0))
        r2 = positive_noise_rate(
            tiny_dataset, inject_positive_noise(tiny_dataset, 0.4, rng=0))
        assert r2 > r1 > 0
