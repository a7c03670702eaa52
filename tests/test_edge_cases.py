"""Edge cases across modules: boundary ks, degenerate graphs, empty sets."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import InteractionDataset
from repro.dro.variance import (MeanVarianceSoftmaxLoss,
                                VarianceAblatedSoftmaxLoss)
from repro.eval import evaluate_scores, rank_items
from repro.graph import normalize_adjacency, spmm
from repro.losses import get_loss
from repro.losses.contrastive import InfoNCELoss
from repro.losses.schedules import (ConstantSchedule, CosineSchedule,
                                    LinearSchedule)
from repro.tensor import Tensor
from repro.tensor import functional as F


class TestEvaluatorBoundaries:
    def test_k_exceeding_catalogue(self):
        train = np.array([[0, 0]])
        test = np.array([[0, 1]])
        ds = InteractionDataset(1, 3, train, test)
        result = evaluate_scores(np.array([[0.1, 0.9, 0.5]]), ds, ks=(10,))
        assert result["recall@10"] == 1.0

    def test_all_items_in_train_leaves_no_candidates(self):
        # user interacted with everything except the test item
        train = np.array([[0, 0], [0, 1]])
        test = np.array([[0, 2]])
        ds = InteractionDataset(1, 3, train, test)
        result = evaluate_scores(np.zeros((1, 3)), ds, ks=(1,))
        assert result["recall@1"] == 1.0  # only candidate is the answer

    def test_single_user_dataset(self):
        ds = InteractionDataset(1, 4, np.array([[0, 0]]),
                                np.array([[0, 1]]))
        result = evaluate_scores(np.random.default_rng(0).random((1, 4)),
                                 ds, ks=(2,))
        assert 0.0 <= result["recall@2"] <= 1.0

    def test_rank_items_single_column(self):
        assert rank_items(np.array([[0.5]]), 1).tolist() == [[0]]


class TestGraphBoundaries:
    def test_normalize_empty_adjacency(self):
        adj = sp.csr_matrix((4, 4))
        norm = normalize_adjacency(adj)
        assert norm.nnz == 0

    def test_spmm_zero_matrix(self):
        mat = sp.csr_matrix((3, 3))
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = spmm(mat, x)
        np.testing.assert_allclose(out.data, 0.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 0.0)

    def test_dataset_with_isolated_items(self):
        # item 3 never interacted with: propagation must stay finite
        from repro.models import LightGCN
        ds = InteractionDataset(2, 4, np.array([[0, 0], [1, 1]]),
                                np.array([[0, 2]]))
        model = LightGCN(ds, dim=4, num_layers=2, rng=0)
        users, items = model.propagate()
        assert np.all(np.isfinite(users.data))
        assert np.all(np.isfinite(items.data))


class TestLossBoundaries:
    def test_single_negative(self):
        pos = Tensor(np.array([0.5]), requires_grad=True)
        neg = Tensor(np.array([[0.1]]), requires_grad=True)
        for name in ("bpr", "bce", "mse", "sl", "bsl"):
            value = get_loss(name)(pos, neg)
            assert np.isfinite(value.item()), name

    def test_batch_of_one(self):
        pos = Tensor(np.array([0.3]))
        neg = Tensor(np.array([[0.1, -0.2, 0.0]]))
        assert np.isfinite(get_loss("bsl")(pos, neg).item())

    def test_extreme_temperatures_stay_finite(self):
        rng = np.random.default_rng(0)
        pos = Tensor(rng.uniform(-1, 1, 16))
        neg = Tensor(rng.uniform(-1, 1, (16, 32)))
        for tau in (1e-3, 1e3):
            assert np.isfinite(get_loss("sl", tau=tau)(pos, neg).item())
            assert np.isfinite(get_loss("bsl", tau1=tau,
                                        tau2=tau)(pos, neg).item())

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.1, float("inf")],
                             ids=["nan", "zero", "negative", "inf"])
    @pytest.mark.parametrize("make", [
        lambda t: get_loss("sl", tau=t),
        lambda t: get_loss("bsl", tau1=t, tau2=0.1),
        lambda t: get_loss("bsl", tau1=0.1, tau2=t),
        lambda t: InfoNCELoss(tau=t),
        lambda t: VarianceAblatedSoftmaxLoss(tau=t),
        lambda t: MeanVarianceSoftmaxLoss(tau=t),
        lambda t: ConstantSchedule(t),
        lambda t: CosineSchedule(t, 0.1),
        lambda t: CosineSchedule(0.1, t),
        lambda t: LinearSchedule(t, 0.1),
        lambda t: LinearSchedule(0.1, t),
    ], ids=["sl", "bsl-tau1", "bsl-tau2", "infonce", "variance-ablated",
            "mean-variance", "constant", "cosine-start", "cosine-end",
            "linear-start", "linear-end"])
    def test_temperature_must_be_positive(self, make, bad):
        """NaN fails ``tau <= 0`` as well as ``tau > 0``, and infinity
        passes ``tau > 0`` but makes its term of the loss a constant:
        every loss and schedule must reject both, not train on them."""
        with pytest.raises(ValueError):
            make(bad)

    def test_identical_scores_everywhere(self):
        pos = Tensor(np.full(4, 0.5))
        neg = Tensor(np.full((4, 8), 0.5))
        for name in ("bpr", "bce", "mse", "sl", "bsl"):
            assert np.isfinite(get_loss(name)(pos, neg).item()), name


class TestFunctionalBoundaries:
    def test_logsumexp_with_neg_inf_entries(self):
        x = Tensor(np.array([[-np.inf, 0.0, 1.0]]))
        value = F.logsumexp(x, axis=1).data
        expected = np.log(np.exp(0.0) + np.exp(1.0))
        np.testing.assert_allclose(value, [expected], atol=1e-12)

    def test_logsumexp_all_neg_inf_row(self):
        x = Tensor(np.array([[-np.inf, -np.inf]]))
        assert F.logsumexp(x, axis=1).data[0] == -np.inf

    def test_softmax_one_hot_at_extreme_scale(self):
        x = Tensor(np.array([[1000.0, 0.0, 0.0]]))
        out = F.softmax(x, axis=1).data
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-12)


class TestDatasetBoundaries:
    def test_popularity_groups_more_groups_than_items(self):
        ds = InteractionDataset(1, 3, np.array([[0, 0]]),
                                np.array([[0, 1]]))
        groups = ds.popularity_groups(10)
        assert groups.shape == (3,)

    def test_density_of_empty_train(self):
        ds = InteractionDataset(2, 2, np.empty((0, 2)),
                                np.array([[0, 0]]))
        assert ds.density == 0.0
        assert ds.num_train == 0
