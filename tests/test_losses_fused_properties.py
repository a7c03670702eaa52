"""Property tests: the fused kernels are indistinguishable from the oracle.

* the loss classes (one fused kernel each) and the compositional forms
  in ``tests/oracles.py`` produce identical losses and gradients, for
  both BSL poolings and all SL flag combinations;
* BSL with ``tau1 == tau2`` at batch size 1 reduces to SL (up to the
  documented constant shift), on the kernels as well as the oracles.
"""

import functools

import numpy as np
import pytest

from repro.losses import BSLLoss, InfoNCELoss, SoftmaxLoss
from repro.tensor import Tensor

from tests import oracles


def _sl(fused, tau, **flags):
    """SL as the production loss (``fused``) or as the oracle form."""
    if fused:
        return SoftmaxLoss(tau=tau, **flags)
    return functools.partial(oracles.softmax_loss, tau=tau, **flags)


def _bsl(fused, tau1, tau2, pooling):
    """BSL as the production loss (``fused``) or as the oracle form."""
    if fused:
        return BSLLoss(tau1=tau1, tau2=tau2, pooling=pooling)
    return functools.partial(oracles.bsl_loss, tau1=tau1, tau2=tau2,
                             pooling=pooling)


def _pair(p, n):
    return (Tensor(np.asarray(p, dtype=float).copy(), requires_grad=True),
            Tensor(np.asarray(n, dtype=float).copy(), requires_grad=True))


def _backward_both(loss_fused, loss_oracle, p, n):
    a, b = _pair(p, n), _pair(p, n)
    lf = loss_fused(*a)
    lo = loss_oracle(*b)
    np.testing.assert_allclose(lf.item(), lo.item(), rtol=1e-12, atol=1e-14)
    lf.backward()
    lo.backward()
    np.testing.assert_allclose(a[0].grad, b[0].grad, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(a[1].grad, b[1].grad, rtol=1e-10, atol=1e-14)
    return lf.item()


@pytest.fixture()
def scores():
    rng = np.random.default_rng(42)
    return rng.normal(size=16) * 0.6, rng.normal(size=(16, 24)) * 0.6


class TestFusedEqualsUnfused:
    @pytest.mark.parametrize("include_positive", [False, True])
    @pytest.mark.parametrize("scale", [False, True])
    def test_sl(self, scores, include_positive, scale):
        p, n = scores
        flags = dict(include_positive=include_positive,
                     scale_by_temperature=scale)
        _backward_both(_sl(True, 0.23, **flags), _sl(False, 0.23, **flags),
                       p, n)

    @pytest.mark.parametrize("pooling", ["mean", "log_mean_exp"])
    @pytest.mark.parametrize("taus", [(0.2, 0.2), (0.3, 0.15), (0.08, 0.4)])
    def test_bsl_both_poolings(self, scores, pooling, taus):
        p, n = scores
        t1, t2 = taus
        _backward_both(_bsl(True, t1, t2, pooling),
                       _bsl(False, t1, t2, pooling), p, n)

    def test_infonce(self):
        rng = np.random.default_rng(7)
        z1, z2 = rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
        a = (Tensor(z1.copy(), requires_grad=True),
             Tensor(z2.copy(), requires_grad=True))
        b = (Tensor(z1.copy(), requires_grad=True),
             Tensor(z2.copy(), requires_grad=True))
        lf = InfoNCELoss(tau=0.2)(*a)
        lo = oracles.infonce_loss(*b, tau=0.2)
        np.testing.assert_allclose(lf.item(), lo.item(), rtol=1e-12)
        lf.backward()
        lo.backward()
        for fi, oi in zip(a, b):
            np.testing.assert_allclose(fi.grad, oi.grad,
                                       rtol=1e-9, atol=1e-13)

    def test_extreme_logits_agree(self):
        """Both paths share the max-shift stabilisation at huge logits."""
        p = np.array([50.0, -50.0])
        n = np.array([[60.0, -60.0, 0.0], [30.0, -30.0, 0.0]])
        for pooling in ("mean", "log_mean_exp"):
            _backward_both(_bsl(True, 0.1, 0.1, pooling),
                           _bsl(False, 0.1, 0.1, pooling), p, n)


class TestBSLReducesToSL:
    """BSL(τ1=τ2, B=1) is SL up to documented constant shifts.

    * ``mean`` pooling: BSL = SL − log m (logmeanexp vs logsumexp), so
      the gradients match SL's exactly.
    * ``log_mean_exp`` pooling at B=1: BSL = τ·(SL − log m), i.e. SL
      with ``scale_by_temperature=True``; gradients are τ·∇SL.
    """

    TAU = 0.21

    @pytest.fixture()
    def single_row(self):
        rng = np.random.default_rng(3)
        return rng.normal(size=1) * 0.5, rng.normal(size=(1, 12)) * 0.5

    @pytest.mark.parametrize("fused", [True, False])
    def test_mean_pooling(self, single_row, fused):
        p, n = single_row
        m = n.shape[1]
        a, b = _pair(p, n), _pair(p, n)
        bsl = _bsl(fused, self.TAU, self.TAU, "mean")(*a)
        sl = _sl(fused, self.TAU)(*b)
        np.testing.assert_allclose(bsl.item(), sl.item() - np.log(m),
                                   rtol=1e-10)
        bsl.backward()
        sl.backward()
        np.testing.assert_allclose(a[0].grad, b[0].grad, rtol=1e-10)
        np.testing.assert_allclose(a[1].grad, b[1].grad, rtol=1e-10)

    @pytest.mark.parametrize("fused", [True, False])
    def test_log_mean_exp_pooling(self, single_row, fused):
        p, n = single_row
        m = n.shape[1]
        a, b = _pair(p, n), _pair(p, n)
        bsl = _bsl(fused, self.TAU, self.TAU, "log_mean_exp")(*a)
        sl = _sl(fused, self.TAU)(*b)
        np.testing.assert_allclose(
            bsl.item(), self.TAU * (sl.item() - np.log(m)), rtol=1e-9)
        bsl.backward()
        sl.backward()
        np.testing.assert_allclose(a[0].grad, self.TAU * b[0].grad,
                                   rtol=1e-9)
        np.testing.assert_allclose(a[1].grad, self.TAU * b[1].grad,
                                   rtol=1e-9)

    @pytest.mark.parametrize("pooling", ["mean", "log_mean_exp"])
    def test_fused_and_oracle_reduce_identically(self, single_row, pooling):
        """The reduction itself is path-independent."""
        p, n = single_row
        a, b = _pair(p, n), _pair(p, n)
        fused_val = _bsl(True, self.TAU, self.TAU, pooling)(*a).item()
        oracle_val = _bsl(False, self.TAU, self.TAU, pooling)(*b).item()
        np.testing.assert_allclose(fused_val, oracle_val, rtol=1e-12)


class TestTrainingParityEndToEnd:
    """A short MF training run is bit-comparable fused vs oracle."""

    @pytest.mark.parametrize("loss_name", ["sl", "bsl"])
    def test_loss_histories_match(self, tiny_dataset, loss_name):
        from repro.losses import get_loss
        from repro.models.registry import get_model
        from repro.train.trainer import train_model

        production = get_loss(loss_name)
        oracle = (_sl(False, production.tau) if loss_name == "sl"
                  else _bsl(False, production.tau1, production.tau2,
                            production.pooling))
        histories = {}
        for fused, loss in ((True, production), (False, oracle)):
            model = get_model("mf", tiny_dataset, dim=8, rng=1)
            result = train_model(model, loss, tiny_dataset, epochs=3,
                                 batch_size=64, n_negatives=8,
                                 eval_every=0, patience=0, seed=9)
            histories[fused] = result.loss_history
        np.testing.assert_allclose(histories[True], histories[False],
                                   rtol=1e-9, atol=1e-12)
