"""Embedding lookups and optimizers."""

import numpy as np
import pytest

from repro.nn import Embedding, Adam, Parameter, SparseAdam
from repro.nn.init import xavier_uniform, xavier_normal, normal
from repro.tensor import Tensor


class TestEmbedding:
    def test_lookup_values(self):
        emb = Embedding(5, 3, rng=0)
        idx = np.array([0, 4, 2])
        np.testing.assert_allclose(emb(idx).data, emb.weight.data[idx])

    def test_2d_index_lookup(self):
        emb = Embedding(5, 3, rng=0)
        idx = np.array([[0, 1], [2, 3]])
        assert emb(idx).shape == (2, 2, 3)

    def test_gradient_accumulates_for_repeats(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], np.full(3, 3.0))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Embedding(0, 3)
        with pytest.raises(ValueError):
            Embedding(3, 0)

    def test_deterministic_under_seed(self):
        a = Embedding(10, 4, rng=42).weight.data
        b = Embedding(10, 4, rng=42).weight.data
        np.testing.assert_array_equal(a, b)


class TestInitializers:
    def test_xavier_uniform_bounds(self):
        w = xavier_uniform((100, 50), rng=0)
        bound = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= bound)
        assert w.std() > bound / 4  # not degenerate

    def test_xavier_normal_std(self):
        w = xavier_normal((200, 100), rng=0)
        expected = np.sqrt(2.0 / 300)
        assert abs(w.std() - expected) / expected < 0.1

    def test_plain_normal(self):
        w = normal((500, 20), std=0.3, rng=0)
        assert abs(w.std() - 0.3) < 0.02

    def test_1d_shape_supported(self):
        assert xavier_uniform((8,), rng=0).shape == (8,)


def _quadratic_param(start):
    return Parameter(np.asarray(start, dtype=np.float64))


def _loss_of(p):
    return ((p - 3.0) ** 2).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_param([0.0, 10.0])
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            _loss_of(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [3.0, 3.0], atol=1e-2)

    def test_first_step_size_is_lr(self):
        # With bias correction the very first Adam step ~= lr * sign(grad).
        p = _quadratic_param([0.0])
        opt = Adam([p], lr=0.5)
        opt.zero_grad()
        _loss_of(p).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [0.5], atol=1e-6)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_param([0.0])], lr=0.0)

    def test_rejects_nan_lr(self):
        """``nan <= 0`` is false: a NaN rate would pass a plain
        comparison and turn every parameter NaN on the first step."""
        with pytest.raises(ValueError, match="learning rate"):
            Adam([_quadratic_param([0.0])], lr=float("nan"))

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    @pytest.mark.parametrize("betas", [(1.0, 0.999), (0.9, 1.0),
                                       (-0.1, 0.999), (0.9, float("nan"))])
    @pytest.mark.parametrize("make", [Adam, SparseAdam])
    def test_rejects_betas_outside_unit_interval(self, make, betas):
        """A beta of 1 zeroes the bias correction: NaN on step one."""
        with pytest.raises(ValueError, match="betas"):
            make([_quadratic_param([0.0])], lr=0.1, betas=betas)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
    @pytest.mark.parametrize("make", [Adam, SparseAdam])
    def test_rejects_non_positive_eps(self, make, eps):
        """Zero moments over ``sqrt(0) + eps`` would be 0 / 0."""
        with pytest.raises(ValueError, match="eps"):
            make([_quadratic_param([0.0])], lr=0.1, eps=eps)

    @pytest.mark.parametrize("make", [Adam, SparseAdam])
    def test_rejects_negative_weight_decay(self, make):
        with pytest.raises(ValueError, match="weight_decay"):
            make([_quadratic_param([0.0])], lr=0.1, weight_decay=-1e-6)

    @pytest.mark.parametrize("name, match", [
        ("lr", "learning rate"), ("eps", "eps"),
        ("weight_decay", "weight_decay")])
    @pytest.mark.parametrize("make", [Adam, SparseAdam])
    def test_rejects_infinite_hyperparameters(self, make, name, match):
        """An infinite rate leaves the table at -inf after one step, an
        infinite decay turns it NaN, and an infinite ``eps`` makes every
        update 0: training silently frozen."""
        kwargs = {"lr": 0.1, name: float("inf")}
        with pytest.raises(ValueError, match=match):
            make([_quadratic_param([0.0])], **kwargs)

    def test_zero_beta_and_weight_decay_are_valid(self):
        p = _quadratic_param([1.0])
        opt = Adam([p], lr=0.1, betas=(0.0, 0.0), weight_decay=0.0)
        opt.zero_grad()
        _loss_of(p).backward()
        opt.step()
        assert np.isfinite(p.data).all() and p.data[0] > 1.0

    def test_weight_decay_shrinks(self):
        p = _quadratic_param([1.0])
        opt = Adam([p], lr=0.1, weight_decay=10.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()  # zero data gradient
        opt.step()
        assert abs(p.data[0]) < 1.0

    def test_skips_params_without_grad(self):
        p = _quadratic_param([1.0])
        Adam([p], lr=0.1).step()  # no grad set: no crash, no change
        np.testing.assert_allclose(p.data, [1.0])

    def test_independent_state_per_param(self):
        p1 = _quadratic_param([0.0])
        p2 = _quadratic_param([100.0])
        opt = Adam([p1, p2], lr=0.3)
        for _ in range(50):
            opt.zero_grad()
            (_loss_of(p1) + _loss_of(p2)).backward()
            opt.step()
        # Both should move toward 3 despite very different gradient scales.
        assert abs(p1.data[0] - 3.0) < 2.0
        assert p2.data[0] < 100.0
