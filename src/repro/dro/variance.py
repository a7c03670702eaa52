"""Variance-ablated softmax loss (Fig. 5's 'w/o variance' arm).

Lemma 2 decomposes SL's negative part as ``E[f] + V[f]/(2τ) + o(1/τ)``.
The ablation removes the variance penalty, leaving a mean-only negative
part; comparing the two isolates the fairness contribution of the
variance regularizer.
"""

from __future__ import annotations

import math

from repro.losses.base import Loss
from repro.tensor import Tensor
from repro.tensor import functional as F

__all__ = ["VarianceAblatedSoftmaxLoss", "MeanVarianceSoftmaxLoss"]


class VarianceAblatedSoftmaxLoss(Loss):
    """SL with the variance term removed (``w/o variance``).

    Uses the Lemma 2 surrogate directly: the negative part is the plain
    mean of negative scores scaled by 1/τ, i.e. the expansion of SL with
    the ``V[f]/(2τ)`` term deleted.
    """

    name = "sl-novar"

    def __init__(self, tau: float = 0.1):
        if not 0 < tau < math.inf:
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {tau}")
        self.tau = tau

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        row_loss = (-pos + neg.mean(axis=1)) / self.tau
        return row_loss.mean()


class MeanVarianceSoftmaxLoss(Loss):
    """The Lemma 2 surrogate *with* the variance term (``w/ variance``).

    ``L = (-pos + E[neg] + V[neg]/(2τ)) / τ`` — the second-order
    approximation of SL.  Training with this surrogate should recover
    SL's fairness profile, which is exactly Fig. 5's comparison.
    """

    name = "sl-meanvar"

    def __init__(self, tau: float = 0.1):
        if not 0 < tau < math.inf:
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {tau}")
        self.tau = tau

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        neg_mean = neg.mean(axis=1)
        neg_var = F.variance(neg, axis=1)
        row_loss = (-pos + neg_mean + neg_var / (2.0 * self.tau)) / self.tau
        return row_loss.mean()
