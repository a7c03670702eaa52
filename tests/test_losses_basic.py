"""Pointwise/pairwise losses: hand-computed values and gradient direction."""

import numpy as np
import pytest
from scipy.special import expit

from repro.losses import (BCELoss, MSELoss, BPRLoss, MarginHingeLoss,
                          get_loss, loss_names)
from repro.tensor import Tensor


def _scores(pos, neg):
    return (Tensor(np.asarray(pos, dtype=float), requires_grad=True),
            Tensor(np.asarray(neg, dtype=float), requires_grad=True))


class TestInterface:
    def test_rejects_wrong_pos_shape(self):
        loss = BPRLoss()
        with pytest.raises(ValueError):
            loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))

    def test_rejects_wrong_neg_shape(self):
        loss = BPRLoss()
        with pytest.raises(ValueError):
            loss(Tensor(np.zeros(2)), Tensor(np.zeros(2)))

    def test_rejects_batch_mismatch(self):
        loss = BPRLoss()
        with pytest.raises(ValueError):
            loss(Tensor(np.zeros(2)), Tensor(np.zeros((3, 4))))

    @pytest.mark.parametrize("name", ["sl", "bsl", "bpr"])
    def test_rejects_empty_negative_block(self, name):
        with pytest.raises(ValueError, match="neg_scores"):
            get_loss(name)(Tensor(np.zeros(2)), Tensor(np.zeros((2, 0))))

    def test_repr_shows_params(self):
        assert "tau" in repr(get_loss("sl", tau=0.2))


class TestMSE:
    def test_hand_computed_value(self):
        pos, neg = _scores([1.0, 0.0], [[0.0, 1.0]] * 2)
        # pos term: mean((1-1)^2, (0-1)^2) = 0.5
        # neg term: mean(0, 1, 0, 1) = 0.5
        loss = MSELoss(negative_weight=1.0)(pos, neg)
        assert loss.item() == pytest.approx(1.0)

    def test_perfect_scores_zero_loss(self):
        pos, neg = _scores([1.0, 1.0], [[0.0], [0.0]])
        assert MSELoss()(pos, neg).item() == pytest.approx(0.0)

    def test_negative_weight_scales(self):
        pos, neg = _scores([1.0], [[1.0]])
        l1 = MSELoss(negative_weight=1.0)(pos, neg).item()
        l2 = MSELoss(negative_weight=2.0)(pos, neg).item()
        assert l2 == pytest.approx(2 * l1)

    def test_gradient_directions(self):
        pos, neg = _scores([0.2], [[0.5]])
        MSELoss()(pos, neg).backward()
        assert pos.grad[0] < 0   # increase positive score
        assert neg.grad[0, 0] > 0  # decrease negative score

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            MSELoss(negative_weight=0.0)


class TestBCE:
    def test_hand_computed_value(self):
        pos, neg = _scores([0.0], [[0.0]])
        # softplus(0) = log 2 on both sides
        assert BCELoss()(pos, neg).item() == pytest.approx(2 * np.log(2))

    def test_matches_sigmoid_formulation(self):
        rng = np.random.default_rng(0)
        p, n = rng.normal(size=4), rng.normal(size=(4, 3))
        pos, neg = _scores(p, n)
        got = BCELoss()(pos, neg).item()
        expected = (-np.log(expit(p)).mean()
                    - np.log(1 - expit(n)).mean())
        assert got == pytest.approx(expected, rel=1e-9)

    def test_scale_sharpens(self):
        pos, neg = _scores([0.5], [[-0.5]])
        # smaller scale -> effectively larger logits -> smaller loss here
        l_wide = BCELoss(scale=1.0)(pos, neg).item()
        l_sharp = BCELoss(scale=0.1)(pos, neg).item()
        assert l_sharp < l_wide

    def test_gradient_directions(self):
        pos, neg = _scores([0.1], [[0.3]])
        BCELoss()(pos, neg).backward()
        assert pos.grad[0] < 0
        assert neg.grad[0, 0] > 0


class TestBPR:
    def test_hand_computed_value(self):
        pos, neg = _scores([1.0], [[0.0]])
        expected = -np.log(expit(1.0))
        assert BPRLoss()(pos, neg).item() == pytest.approx(expected)

    def test_zero_margin_gives_log2(self):
        pos, neg = _scores([0.3], [[0.3]])
        assert BPRLoss()(pos, neg).item() == pytest.approx(np.log(2))

    def test_decreases_with_margin(self):
        values = []
        for margin in (0.0, 0.5, 1.0, 2.0):
            pos, neg = _scores([margin], [[0.0]])
            values.append(BPRLoss()(pos, neg).item())
        assert values == sorted(values, reverse=True)

    def test_gradient_pushes_apart(self):
        pos, neg = _scores([0.0], [[0.0, 0.0]])
        BPRLoss()(pos, neg).backward()
        assert pos.grad[0] < 0
        assert np.all(neg.grad > 0)

    def test_averages_over_negatives(self):
        pos1, neg1 = _scores([1.0], [[0.0]])
        pos2, neg2 = _scores([1.0], [[0.0, 0.0, 0.0]])
        assert BPRLoss()(pos1, neg1).item() == pytest.approx(
            BPRLoss()(pos2, neg2).item())


class TestMarginHinge:
    def test_inside_margin_penalized(self):
        pos, neg = _scores([0.2], [[0.0]])
        loss = MarginHingeLoss(margin=0.5)(pos, neg)
        assert loss.item() == pytest.approx(0.3)

    def test_outside_margin_zero(self):
        pos, neg = _scores([1.0], [[0.0]])
        assert MarginHingeLoss(margin=0.5)(pos, neg).item() == 0.0

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            MarginHingeLoss(margin=0.0)


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in loss_names():
            assert get_loss(name) is not None

    def test_kwargs_forwarded(self):
        loss = get_loss("bsl", tau1=0.3, tau2=0.1)
        assert loss.ratio == pytest.approx(3.0)

    def test_case_insensitive(self):
        assert get_loss("SL").name == "sl"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_loss("focal")
