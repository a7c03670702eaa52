"""Gradchecks for the fused loss kernels against the compositional oracle.

Enforces the fused-kernel contract (see the :mod:`repro.tensor` module
docstring): every fused primitive must agree with its compositional
reference (``tests/oracles.py``) in value to numerical precision and in
gradient to <= 1e-6 against central finite differences, on random shapes
including broadcast-adjacent and single-row edge cases.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F

from tests import oracles
from tests.helpers import check_gradient_against_control, numeric_gradient


@pytest.fixture()
def rng():
    return np.random.default_rng(20260728)


def _grad_pair(fused_fn, oracle_fn, arrays):
    """Backprop both paths on copies of ``arrays``; return grad lists."""
    fused_inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    oracle_inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fused_out = fused_fn(*fused_inputs)
    oracle_out = oracle_fn(*oracle_inputs)
    assert fused_out.shape == oracle_out.shape
    np.testing.assert_allclose(fused_out.data, oracle_out.data,
                               rtol=1e-10, atol=1e-12,
                               err_msg="fused forward diverged from oracle")
    fused_out.sum().backward()
    oracle_out.sum().backward()
    for f_in, o_in in zip(fused_inputs, oracle_inputs):
        np.testing.assert_allclose(f_in.grad, o_in.grad,
                                   rtol=1e-9, atol=1e-12,
                                   err_msg="fused gradient diverged from oracle")
    return fused_inputs


def _fdcheck(scalar_fused_fn, numpy_fn, arrays, atol=1e-6):
    """Finite-difference check of a scalar-output fused kernel."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = scalar_fused_fn(*inputs)
    assert out.size == 1
    out.backward()
    for i, a in enumerate(arrays):
        def partial(x):
            args = [arr.copy() for arr in arrays]
            args[i] = x
            return float(numpy_fn(*args))
        expected = numeric_gradient(partial, a.copy())
        np.testing.assert_allclose(inputs[i].grad, expected, atol=atol,
                                   err_msg=f"finite-diff mismatch on arg {i}")


class TestFusedSoftmaxLoss:
    @pytest.mark.parametrize("shape", [(8, 16), (1, 4), (5, 1), (64, 128)])
    @pytest.mark.parametrize("include_positive", [False, True])
    @pytest.mark.parametrize("scale", [False, True])
    def test_matches_oracle(self, rng, shape, include_positive, scale):
        from repro.losses import SoftmaxLoss
        p = rng.normal(size=shape[0]) * 0.5
        n = rng.normal(size=shape) * 0.5
        fused = SoftmaxLoss(tau=0.17, include_positive=include_positive,
                            scale_by_temperature=scale)
        _grad_pair(lambda a, b: fused(a, b),
                   lambda a, b: oracles.softmax_loss(
                       a, b, 0.17, include_positive=include_positive,
                       scale_by_temperature=scale),
                   [p, n])

    def test_finite_difference(self, rng):
        p = rng.normal(size=4) * 0.5
        n = rng.normal(size=(4, 6)) * 0.5
        tau = 0.3

        def np_loss(pv, nv):
            logits = nv / tau
            m = logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
            return np.mean(-pv / tau + lse)

        _fdcheck(lambda a, b: F.fused_softmax_loss(a, b, tau), np_loss,
                 [p, n])

    def test_single_row_single_negative(self, rng):
        from repro.losses import SoftmaxLoss
        p = rng.normal(size=1)
        n = rng.normal(size=(1, 1))
        fused = SoftmaxLoss(tau=0.2)
        _grad_pair(lambda a, b: fused(a, b),
                   lambda a, b: oracles.softmax_loss(a, b, 0.2), [p, n])


class TestFusedBSLLoss:
    @pytest.mark.parametrize("shape", [(8, 16), (1, 4), (5, 1), (64, 128)])
    @pytest.mark.parametrize("pooling", ["mean", "log_mean_exp"])
    def test_matches_oracle(self, rng, shape, pooling):
        from repro.losses import BSLLoss
        p = rng.normal(size=shape[0]) * 0.5
        n = rng.normal(size=shape) * 0.5
        fused = BSLLoss(tau1=0.3, tau2=0.2, pooling=pooling)
        _grad_pair(lambda a, b: fused(a, b),
                   lambda a, b: oracles.bsl_loss(a, b, 0.3, 0.2,
                                                 pooling=pooling),
                   [p, n])

    @pytest.mark.parametrize("pooling", ["mean", "log_mean_exp"])
    def test_finite_difference(self, rng, pooling):
        p = rng.normal(size=5) * 0.5
        n = rng.normal(size=(5, 7)) * 0.5
        t1, t2 = 0.25, 0.4

        def np_loss(pv, nv):
            lme = np.log(np.mean(np.exp(nv / t2), axis=1))
            if pooling == "mean":
                return np.mean(-pv / t1 + (t1 / t2) * lme)
            margin = (pv - t2 * lme) / t1
            return -t1 * np.log(np.mean(np.exp(margin)))

        _fdcheck(
            lambda a, b: F.fused_bsl_loss(a, b, t1, t2, pooling=pooling),
            np_loss, [p, n])

    def test_rejects_unknown_pooling(self, rng):
        p = Tensor(rng.normal(size=2))
        n = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            F.fused_bsl_loss(p, n, 0.2, 0.2, pooling="median")


class TestFusedInfoNCE:
    @pytest.mark.parametrize("shape", [(6, 4), (1, 3), (12, 8)])
    def test_matches_oracle(self, rng, shape):
        from repro.losses import InfoNCELoss
        z1 = rng.normal(size=shape)
        z2 = rng.normal(size=shape)
        fused = InfoNCELoss(tau=0.2)
        _grad_pair(lambda a, b: fused(a, b),
                   lambda a, b: oracles.infonce_loss(a, b, 0.2), [z1, z2])

    def test_finite_difference(self, rng):
        z1 = rng.normal(size=(4, 3))
        z2 = rng.normal(size=(4, 3))
        tau, eps = 0.5, 1e-12

        def np_loss(a, b):
            an = a / np.sqrt((a * a).sum(axis=1, keepdims=True) + eps)
            bn = b / np.sqrt((b * b).sum(axis=1, keepdims=True) + eps)
            sims = an @ bn.T / tau
            m = sims.max(axis=1, keepdims=True)
            lse = np.log(np.exp(sims - m).sum(axis=1)) + m[:, 0]
            return np.mean(-np.diag(sims) + lse)

        _fdcheck(lambda a, b: F.fused_infonce_loss(a, b, tau), np_loss,
                 [z1, z2])

    def test_rejects_mismatched_views(self, rng):
        with pytest.raises(ValueError):
            F.fused_infonce_loss(Tensor(np.zeros((3, 2))),
                                 Tensor(np.zeros((4, 2))), 0.2)


class TestFusedGraphShape:
    def test_fused_builds_single_node(self, rng):
        """The whole point: one graph node instead of an op chain."""
        p = Tensor(rng.normal(size=4), requires_grad=True)
        n = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        out = F.fused_bsl_loss(p, n, 0.2, 0.2)
        assert out._parents == (p, n)

        comp_p = Tensor(p.data, requires_grad=True)
        comp_n = Tensor(n.data, requires_grad=True)
        comp = oracles.bsl_loss(comp_p, comp_n, 0.2, 0.2)
        # The compositional form interposes intermediate nodes.
        assert len(comp._parents) > 0
        assert all(par is not comp_p and par is not comp_n
                   for par in comp._parents)

    def test_no_graph_recorded_under_no_grad(self, rng):
        from repro.tensor import no_grad
        p = Tensor(rng.normal(size=4), requires_grad=True)
        n = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        with no_grad():
            out = F.fused_softmax_loss(p, n, 0.2)
        assert out._parents == ()


class TestFloat32Inputs:
    """The kernels keep the dtype of their inputs, forward and backward."""

    @pytest.mark.parametrize("kernel", [
        lambda p, n: F.fused_softmax_loss(p, n, 0.2),
        lambda p, n: F.fused_softmax_loss(p, n, 0.2, include_positive=True,
                                          scale_by_temperature=True),
        lambda p, n: F.fused_bsl_loss(p, n, 0.3, 0.2),
        lambda p, n: F.fused_bsl_loss(p, n, 0.3, 0.2, pooling="log_mean_exp"),
    ], ids=["sl", "sl-with-positive", "bsl-mean", "bsl-log_mean_exp"])
    def test_loss_and_gradients_stay_float32(self, rng, kernel):
        p = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
        n = Tensor(rng.normal(size=(4, 6)).astype(np.float32),
                   requires_grad=True)
        out = kernel(p, n)
        out.backward()
        assert (out.dtype, p.grad.dtype, n.grad.dtype) == (np.float32,) * 3


def _sampled_scores(scoring):
    u = np.array([0, 2, 5, 2])
    p = np.array([1, 1, 8, 0])
    n = np.array([[0, 3, 7], [4, 1, 1], [2, 2, 6], [5, 0, 3]])
    w = np.random.default_rng(7).normal(size=(4, 4))

    def fn(users, items):
        return (F.fused_sampled_scores(users, items, u, p, n,
                                       scoring=scoring) * w).sum()
    return fn, [(6, 5), (9, 5)]


_LOSS_SHAPES = [(5,), (5, 7)]

_KERNELS = {
    "sl": (lambda p, n: F.fused_softmax_loss(p, n, 0.3), _LOSS_SHAPES),
    "bsl-mean": (lambda p, n: F.fused_bsl_loss(p, n, 0.25, 0.4),
                 _LOSS_SHAPES),
    "bsl-log_mean_exp": (
        lambda p, n: F.fused_bsl_loss(p, n, 0.25, 0.4,
                                      pooling="log_mean_exp"), _LOSS_SHAPES),
    "infonce": (lambda a, b: F.fused_infonce_loss(a, b, 0.5),
                [(4, 3), (4, 3)]),
    "sampled-cosine": _sampled_scores("cosine"),
    "sampled-inner": _sampled_scores("inner"),
    "sampled-euclidean": _sampled_scores("euclidean"),
}


class TestGradientAgainstControl:
    """Each kernel is the only definition of its objective, so its VJP is
    trusted only where a doubled gradient demonstrably fails."""

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_true_gradient_beats_doubled_control(self, rng, name):
        fn, shapes = _KERNELS[name]
        arrays = [rng.normal(size=shape) * 0.5 for shape in shapes]
        check_gradient_against_control(fn, arrays, rng)
