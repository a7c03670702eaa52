"""Bilateral Softmax Loss (BSL), the paper's proposed loss (Eq. 18).

BSL mirrors the Log-Expectation-Exp structure of SL's negative part on
the positive side, with separate temperatures for the two sides:

``L_BSL(u) = -τ1 log E_i[exp(f(u,i)/τ1)] + τ2 log E_j[exp(f(u,j)/τ2)]``

Two batch estimators are provided:

* ``pooling="mean"`` — the paper's Algorithm 1/2 pseudocode: per-row
  ``-log( exp(pos/τ1) / (Σ exp(neg/τ2))^(τ1/τ2) )`` averaged over the
  batch.  The τ1/τ2 *ratio* decouples the positive pull strength from
  the negative hard-weighting (one extra line vs. SL).
* ``pooling="log_mean_exp"`` — the strict Eq. (18) estimator: rows are
  pooled with ``-τ1·log mean_b exp(ℓ_b/τ1)`` where
  ``ℓ_b = pos_b - τ2·log E_j exp(neg_bj/τ2)``.  The induced softmax
  weights down-weight low-score (likely false) positives directly; with
  ``τ1 = τ2`` and batch size 1 both estimators reduce to SL.

``"mean"`` is the default — it matches the paper's published algorithm
and keeps every row contributing to each step (the strict estimator's
softmax pooling concentrates the gradient on few rows at practical
temperatures, which slows optimization; the ablation bench compares
the two).
"""

from __future__ import annotations

from repro.losses.base import Loss
from repro.tensor import Tensor
from repro.tensor import functional as F

__all__ = ["BSLLoss"]

_POOLINGS = ("mean", "log_mean_exp")


class BSLLoss(Loss):
    """Bilateral Softmax Loss with positive/negative temperatures.

    Parameters
    ----------
    tau1:
        Positive-side temperature (controls positive-denoising radius;
        Fig. 13 sweeps the ratio ``τ1/τ2``).
    tau2:
        Negative-side temperature (same role as SL's ``τ``).
    pooling:
        Batch estimator, see module docstring.

    The objective is one graph node,
    :func:`repro.tensor.functional.fused_bsl_loss`, for both poolings.
    """

    name = "bsl"

    def __init__(self, tau1: float = 0.1, tau2: float = 0.1,
                 pooling: str = "mean"):
        if tau1 <= 0 or tau2 <= 0:
            raise ValueError(f"temperatures must be positive, got {tau1}, {tau2}")
        if pooling not in _POOLINGS:
            raise ValueError(f"pooling must be one of {_POOLINGS}, got {pooling!r}")
        self.tau1 = tau1
        self.tau2 = tau2
        self.pooling = pooling

    @property
    def ratio(self) -> float:
        """The robustness-controlling ratio ``τ1/τ2`` (Sec. V-E)."""
        return self.tau1 / self.tau2

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        return F.fused_bsl_loss(pos, neg, self.tau1, self.tau2,
                                pooling=self.pooling)
