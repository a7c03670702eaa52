"""Metrics vs brute force; evaluator masking and aggregation; groups."""

import tracemalloc

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.eval import metrics
from repro.eval import (recall_at_k, ndcg_at_k, precision_at_k,
                        hit_rate_at_k, average_precision_at_k, rank_items,
                        overlap_at_k, Evaluator, evaluate_scores,
                        group_ndcg, fairness_gap)


class TestRankItems:
    def test_orders_by_score(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        np.testing.assert_array_equal(rank_items(scores, 3), [[1, 2, 0]])

    def test_k_larger_than_items(self):
        scores = np.array([[0.3, 0.1]])
        assert rank_items(scores, 10).shape == (1, 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rank_items(np.zeros((1, 3)), 0)

    def test_matches_argsort(self, rng):
        scores = rng.normal(size=(5, 30))
        top = rank_items(scores, 10)
        expected = np.argsort(-scores, axis=1)[:, :10]
        np.testing.assert_array_equal(top, expected)

    def test_ties_broken_by_smaller_index(self):
        """Canonical order: equal scores rank by ascending item id."""
        scores = np.array([[1.0, 2.0, 1.0, 2.0]])
        np.testing.assert_array_equal(rank_items(scores, 4), [[1, 3, 0, 2]])

    def test_boundary_ties_take_smallest_ids(self):
        """Ties straddling the top-k cut keep the smallest indices."""
        scores = np.array([[1.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(rank_items(scores, 2), [[0, 1]])
        scores = np.array([[0.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(rank_items(scores, 2), [[1, 2]])
        # mixed: one strictly-greater item, boundary tie below it
        scores = np.array([[5.0, 2.0, 2.0, 2.0, 1.0]])
        np.testing.assert_array_equal(rank_items(scores, 3), [[0, 1, 2]])

    def test_neg_inf_ties_are_canonical(self):
        """Masked (-inf) items fill trailing slots by ascending id."""
        scores = np.array([[0.5, -np.inf, -np.inf, -np.inf]])
        np.testing.assert_array_equal(rank_items(scores, 3), [[0, 1, 2]])

    def test_canonical_under_row_permutation(self, rng):
        """The ranking is a pure function of (score, id) pairs."""
        scores = rng.integers(0, 4, size=(7, 40)).astype(np.float64)
        top = rank_items(scores, 10)
        again = rank_items(scores.copy(order="F"), 10)
        np.testing.assert_array_equal(top, again)

    @pytest.mark.parametrize("scores, order", [
        (np.array([[0, 3, 2]], dtype=np.uint8), [[1, 2, 0]]),    # -0 == 0
        (np.array([[-128, 3, 2]], dtype=np.int8), [[1, 2, 0]]),  # -(-128)
        (np.array([[False, True, False]]), [[1, 0, 2]]),   # no negative
    ], ids=["uint8", "int8-min", "bool"])
    def test_non_float_scores_rank_by_value(self, scores, order):
        """Negating these dtypes wraps (or raises), so it must not happen."""
        np.testing.assert_array_equal(rank_items(scores, 1), [order[0][:1]])
        np.testing.assert_array_equal(rank_items(scores, 3), order)

    def test_nan_ranks_below_neg_inf(self):
        """Recorded, not designed: NaN is the worst score there is."""
        scores = np.array([[1.0, np.nan, -np.inf, 2.0]])
        np.testing.assert_array_equal(rank_items(scores, 4), [[3, 0, 2, 1]])
        np.testing.assert_array_equal(rank_items(scores, 3), [[3, 0, 2]])


def python_order(row):
    """Every column of one NaN-free row in ``(score desc, id asc)`` order."""
    return sorted(range(len(row)), key=lambda i: (-row[i], i))


class TestRankItemsAgainstPythonSort:
    """Differential test: ``rank_items`` vs a pure-Python sort.

    The widths straddle the two-level cut-over (``n >= 1024`` and
    ``n >= 32 * k``: 1023 | 1024 for ``k <= 20``, 1599 | 1600 for
    ``k = 50``), 1031 is prime so the tail fold runs, 5000 and 25000 are
    an eval block and a serving shard.  Every value is float32-exact, so
    one oracle serves the float32 and float64 views of a block.
    """

    @staticmethod
    def blocks(rng, n):
        def exact32(block):
            return block.astype(np.float32).astype(np.float64)

        yield "continuous", exact32(rng.normal(size=(5, n)))
        yield "heavy ties", rng.integers(0, 4, size=(5, n)).astype(np.float64)
        yield "sparse ties", rng.integers(0, 10 * n,
                                          size=(5, n)).astype(np.float64)
        masked = exact32(rng.normal(size=(5, n)))
        masked[rng.random(masked.shape) < 0.98] = -np.inf
        masked[3] = -np.inf
        yield "98% -inf", masked
        posinf = exact32(rng.normal(size=(5, n)))
        posinf[rng.random(posinf.shape) < 0.01] = np.inf
        yield "+inf", posinf
        zeros = np.zeros((5, n))
        zeros[rng.random(zeros.shape) < 0.5] = -0.0
        zeros[:, rng.integers(0, n, size=30)] = 1.0
        yield "signed zeros", zeros

    @pytest.mark.parametrize("n", [1023, 1024, 1031, 1599, 1600, 5000, 25000])
    def test_matches_python_sort(self, n):
        rng = np.random.default_rng(n)
        for name, block in self.blocks(rng, n):
            order = np.array([python_order(row) for row in block.tolist()])
            # a view whose neighbours would win if they were ever read
            wide = np.full((9, n + 17), 99.0)
            wide[2:7, :n] = block
            for k in (1, 5, 20, 50, n, n + 3):
                want = order[:, :k]
                layouts = {
                    "float64": (block, want),
                    "float32": (block.astype(np.float32), want),
                    "fortran": (np.asfortranarray(block), want),
                    "view": (wide[2:7, :n], want),
                    "1-D": (block[1], want[1]),
                    "3-D": (block[:4].reshape(2, 2, n),
                            want[:4].reshape(2, 2, -1)),
                    "zero rows": (block[:0], want[:0]),
                }
                for layout, (scores, expected) in layouts.items():
                    got = rank_items(scores, k)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(
                        got, expected, err_msg=f"{name}, {layout}, k={k}")


class TestRankItemsFallback:
    """Rows the two-level selection cannot decide take the base case."""

    N, K = 4000, 20

    @pytest.fixture()
    def block(self, rng):
        """Rows 1, 3, 4 each force one fallback cause; 0, 2, 5 do not."""
        block = rng.normal(size=(6, self.N))
        # K - 1 winners fill at most K - 1 groups, so every other group's
        # maximum is 0.0 and more than K groups reach the K-th one
        block[1] = 0.0
        block[1, rng.choice(self.N, self.K - 1, replace=False)] = 5.0
        # one NaN makes one group maximum, hence the threshold, NaN
        block[3, 1234] = np.nan
        # K - 1 finite columns: the K-th best group maximum is -inf
        block[4] = -np.inf
        block[4, rng.choice(self.N, self.K - 1, replace=False)] = 1.0
        return block

    @pytest.fixture()
    def base_calls(self, monkeypatch):
        """The unpatched base case and the block shapes it is called on."""
        base = metrics._rank_block
        calls = []

        def spy(scores, k):
            calls.append(scores.shape)
            return base(scores, k)

        monkeypatch.setattr(metrics, "_rank_block", spy)
        return base, calls

    def test_each_cause_equals_the_base_case(self, block, base_calls):
        base, calls = base_calls
        for row in (1, 3, 4):
            calls.clear()
            got = rank_items(block[row:row + 1], self.K)
            # the candidate block, then the whole row
            assert len(calls) == 2 and calls[0][1] < self.N // 4
            assert calls[1] == (1, self.N)
            np.testing.assert_array_equal(
                got, base(block[row:row + 1], self.K))
        # recorded: the NaN is not returned, the tie rows are canonical
        assert 1234 not in rank_items(block[3], self.K)
        np.testing.assert_array_equal(
            rank_items(block[1], self.K)[-1], np.flatnonzero(block[1] == 0)[0])
        np.testing.assert_array_equal(
            rank_items(block[4], self.K)[-1], np.flatnonzero(block[4] < 0)[0])

    def test_mixed_block_returns_each_rows_own_answer(self, block,
                                                      base_calls):
        base, calls = base_calls
        got = rank_items(block, self.K)
        assert calls[1:] == [(3, self.N)]   # rows 1, 3, 4 and no other
        np.testing.assert_array_equal(got, base(block, self.K))
        for row in (0, 2, 5):
            assert got[row].tolist() == python_order(block[row])[:self.K]


def test_rank_items_allocates_a_fraction_of_the_block():
    """No full-width temporary: no negated copy, no (rows, n) indices."""
    scores = np.random.default_rng(0).normal(size=(64, 50_000))
    tracemalloc.start()
    try:
        rank_items(scores, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * scores.nbytes


class TestOverlapAtK:
    def test_identical_lists(self):
        lists = np.array([[1, 2, 3], [4, 5, 6]])
        assert overlap_at_k(lists, lists) == 1.0

    def test_disjoint_lists(self):
        a = np.array([[1, 2, 3]])
        b = np.array([[4, 5, 6]])
        assert overlap_at_k(a, b) == 0.0

    def test_order_invariant_partial_overlap(self):
        a = np.array([[1, 2, 3, 4]])
        b = np.array([[4, 3, 9, 8]])
        assert overlap_at_k(a, b) == pytest.approx(0.5)

    def test_single_row_promoted(self):
        assert overlap_at_k(np.array([1, 2]), np.array([2, 1])) == 1.0

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            overlap_at_k(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            overlap_at_k(np.zeros((1, 0)), np.zeros((1, 0)))


class TestMetricValues:
    def test_recall(self):
        top = np.array([3, 1, 7])
        assert recall_at_k(top, {1, 2}) == pytest.approx(0.5)
        assert recall_at_k(top, {5}) == 0.0
        assert recall_at_k(top, set()) == 0.0

    def test_precision(self):
        top = np.array([3, 1, 7])
        assert precision_at_k(top, {1, 3}) == pytest.approx(2 / 3)

    def test_hit_rate(self):
        top = np.array([3, 1])
        assert hit_rate_at_k(top, {1}) == 1.0
        assert hit_rate_at_k(top, {9}) == 0.0

    def test_ndcg_perfect_ranking_is_one(self):
        top = np.array([4, 2, 9])
        assert ndcg_at_k(top, {4, 2, 9}) == pytest.approx(1.0)

    def test_ndcg_hand_computed(self):
        # hit at ranks 1 and 3 (0-indexed 0, 2), two relevant items
        top = np.array([4, 0, 9])
        relevant = {4, 9}
        dcg = 1 / np.log2(2) + 1 / np.log2(4)
        idcg = 1 / np.log2(2) + 1 / np.log2(3)
        assert ndcg_at_k(top, relevant) == pytest.approx(dcg / idcg)

    def test_ndcg_prefers_early_hits(self):
        early = ndcg_at_k(np.array([1, 8, 9]), {1})
        late = ndcg_at_k(np.array([8, 9, 1]), {1})
        assert early > late

    def test_map_hand_computed(self):
        top = np.array([4, 0, 9])
        # precisions at hits: 1/1 and 2/3, two relevant
        expected = (1.0 + 2 / 3) / 2
        assert average_precision_at_k(top, {4, 9}) == pytest.approx(expected)

    def test_map_zero_without_hits(self):
        assert average_precision_at_k(np.array([1, 2]), {7}) == 0.0


@pytest.fixture()
def toy_dataset():
    train = np.array([[0, 0], [1, 1], [2, 2]])
    test = np.array([[0, 1], [0, 2], [1, 0], [2, 3]])
    return InteractionDataset(3, 4, train, test)


class TestEvaluator:
    def test_perfect_oracle_scores(self, toy_dataset):
        scores = np.zeros((3, 4))
        for u, i in toy_dataset.test_pairs:
            scores[u, i] = 10.0
        result = evaluate_scores(scores, toy_dataset, ks=(2,))
        assert result["recall@2"] == pytest.approx(1.0)
        assert result["ndcg@2"] == pytest.approx(1.0)

    def test_train_items_masked(self, toy_dataset):
        # train item scored sky-high must not consume top-k slots
        scores = np.full((3, 4), -1.0)
        scores[0, 0] = 100.0  # train positive of user 0
        scores[0, 1] = 1.0    # actual test positive
        result = evaluate_scores(scores, toy_dataset, ks=(1,))
        per_user = result.per_user["recall@1"]
        user0 = np.where(result.evaluated_users == 0)[0][0]
        assert per_user[user0] == pytest.approx(0.5)  # hit 1 of 2

    def test_multiple_cutoffs(self, toy_dataset):
        scores = np.random.default_rng(0).random((3, 4))
        result = evaluate_scores(scores, toy_dataset, ks=(1, 2, 3))
        assert set(result.metrics) == {"recall@1", "ndcg@1", "recall@2",
                                       "ndcg@2", "recall@3", "ndcg@3"}
        # recall is monotone in k
        assert result["recall@1"] <= result["recall@2"] <= result["recall@3"]

    def test_metric_selection(self, toy_dataset):
        scores = np.random.default_rng(0).random((3, 4))
        result = evaluate_scores(scores, toy_dataset, ks=(2,),
                                 metric_names=("hit", "map"))
        assert set(result.metrics) == {"hit@2", "map@2"}

    def test_unknown_metric_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            Evaluator(toy_dataset, metric_names=("auc",))

    @pytest.mark.parametrize("argument,value", [("ks", ()),
                                                ("batch_users", 0)])
    def test_degenerate_arguments_rejected_by_name(self, toy_dataset,
                                                   argument, value):
        with pytest.raises(ValueError, match=argument):
            Evaluator(toy_dataset, **{argument: value})

    def test_users_without_test_items_excluded(self):
        train = np.array([[0, 0], [1, 1]])
        test = np.array([[0, 1]])  # user 1 has no test items
        ds = InteractionDataset(2, 3, train, test)
        result = evaluate_scores(np.zeros((2, 3)), ds, ks=(1,))
        np.testing.assert_array_equal(result.evaluated_users, [0])

    def test_batched_equals_unbatched(self, tiny_dataset, rng):
        scores = rng.normal(size=(tiny_dataset.num_users,
                                  tiny_dataset.num_items))
        small = Evaluator(tiny_dataset, ks=(10,), batch_users=7)
        big = Evaluator(tiny_dataset, ks=(10,), batch_users=10_000)

        class _Fixed:
            training = False
            def eval(self): return self
            def train(self): return self
            def predict_scores(self, user_ids=None):
                return scores[np.asarray(user_ids)].copy()

        a = small.evaluate(_Fixed())
        b = big.evaluate(_Fixed())
        assert a.metrics == b.metrics


class TestGroups:
    def test_group_ndcg_sums_to_overall(self, tiny_dataset, rng):
        scores = rng.normal(size=(tiny_dataset.num_users,
                                  tiny_dataset.num_items))

        class _Fixed:
            training = False
            def eval(self): return self
            def train(self): return self
            def predict_scores(self, user_ids=None):
                return scores[np.asarray(user_ids)].copy()

        groups = group_ndcg(_Fixed(), tiny_dataset, k=20, n_groups=10)
        overall = evaluate_scores(scores, tiny_dataset, ks=(20,))["ndcg@20"]
        assert groups.sum() == pytest.approx(overall, rel=1e-9)

    def test_fairness_gap_sign(self):
        biased = np.array([0.0] * 7 + [0.1, 0.2, 0.3])
        fair = np.full(10, 0.06)
        assert fairness_gap(biased) > fairness_gap(fair)
