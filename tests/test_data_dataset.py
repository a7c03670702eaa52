"""InteractionDataset invariants."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.data import InteractionDataset, UniformNegativeSampler
from repro.data.synthetic import SyntheticConfig, generate_dataset
from tests.oracles import positive_mask


@pytest.fixture()
def small():
    train = np.array([[0, 0], [0, 1], [1, 2], [2, 0], [2, 3]])
    test = np.array([[0, 2], [1, 0], [2, 1]])
    return InteractionDataset(3, 4, train, test, name="unit")


class TestConstruction:
    def test_counts(self, small):
        assert small.num_train == 5
        assert small.num_test == 3
        assert small.density == pytest.approx(5 / 12)

    def test_grouping(self, small):
        np.testing.assert_array_equal(small.train_items_by_user[0], [0, 1])
        np.testing.assert_array_equal(small.train_items_by_user[1], [2])
        np.testing.assert_array_equal(small.test_items_by_user[2], [1])

    def test_popularity_counts(self, small):
        np.testing.assert_array_equal(small.item_popularity, [2, 1, 1, 1])

    def test_user_degree(self, small):
        np.testing.assert_array_equal(small.user_degrees(), [2, 1, 2])

    def test_out_of_range_user_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, np.array([[5, 0]]), np.empty((0, 2)))

    def test_out_of_range_item_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, np.array([[0, 9]]), np.empty((0, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset(2, 4, np.array([[0, 1, 2]]), np.empty((0, 2)))

    def test_empty_test_ok(self):
        ds = InteractionDataset(2, 2, np.array([[0, 0]]), np.empty((0, 2)))
        assert ds.num_test == 0


class TestDenseViews:
    def test_train_matrix_binary(self, small):
        mat = small.train_matrix().toarray()
        assert mat.shape == (3, 4)
        assert mat.sum() == 5
        assert set(np.unique(mat)) <= {0.0, 1.0}

    def test_positive_mask_matches_matrix(self, small):
        np.testing.assert_array_equal(
            positive_mask(small), small.train_matrix().toarray() > 0)

    def test_padded_positives(self, small):
        padded, degrees = small.batch_padded_positives(np.arange(3))
        np.testing.assert_array_equal(degrees, [2, 1, 2])
        np.testing.assert_array_equal(padded[0, :2], [0, 1])
        np.testing.assert_array_equal(padded[2, :2], [0, 3])

    def test_views_are_read_only(self, small):
        """Per-user lists and the CSR are views of one stored array."""
        with pytest.raises(ValueError):
            small.train_items_by_user[0][0] = 3
        with pytest.raises(ValueError):
            small.test_items_by_user[2][0] = 3
        with pytest.raises(ValueError):
            small.train_csr()[1][0] = 3
        np.testing.assert_array_equal(small.train_items_by_user[0], [0, 1])


class TestMemory:
    def test_build_and_first_batch_hold_under_3x_the_pairs(self):
        """Dataset + one uniform batch on a 9000^2 set: no dense views.

        The CSR adds one item column (~half the pair bytes) and a row
        pointer per user; per-user Python sets or catalogue-wide padded
        matrices would blow through the bound several times over.
        """
        ds = generate_dataset(SyntheticConfig(
            num_users=9000, num_items=9000, num_clusters=24,
            mean_interactions=20.0, train_noise=0.0, seed=0))
        train, test = ds.train_pairs.copy(), ds.test_pairs.copy()
        del ds
        gc.collect()
        tracemalloc.start()
        try:
            dataset = InteractionDataset(9000, 9000, train, test)
            batch = next(UniformNegativeSampler(dataset, rng=0).epoch())
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batch) == 1024
        assert current < 3 * (train.nbytes + test.nbytes)


class TestPopularityGroups:
    def test_groups_partition_items(self, small):
        groups = small.popularity_groups(2)
        assert groups.shape == (4,)
        assert set(groups) == {0, 1}

    def test_most_popular_in_top_group(self):
        train = np.array([[0, 0]] * 1 + [[1, 1]] * 1 +
                         [[2, 2]] * 1 + [[0, 3]] + [[1, 3]] + [[2, 3]])
        ds = InteractionDataset(3, 4, train, np.empty((0, 2)))
        groups = ds.popularity_groups(2)
        assert groups[3] == 1  # item 3 has 3 interactions: top group

    def test_group_sizes_balanced(self, tiny_dataset):
        groups = tiny_dataset.popularity_groups(10)
        counts = np.bincount(groups, minlength=10)
        assert counts.max() - counts.min() <= 1


class TestDerivation:
    def test_with_train_pairs_keeps_test(self, small):
        clone = small.with_train_pairs(np.array([[0, 3]]), name="clone")
        assert clone.num_train == 1
        np.testing.assert_array_equal(clone.test_pairs, small.test_pairs)
        assert clone.name == "clone"
        # original untouched
        assert small.num_train == 5

    def test_repr_mentions_name(self, small):
        assert "unit" in repr(small)
