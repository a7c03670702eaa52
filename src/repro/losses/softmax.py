"""Softmax Loss (SL), paper Eqs. (4)-(5).

SL normalizes model predictions into a multinomial distribution and
optimizes positives against sampled negatives:

``L_SL(u) = -E_i[f(u,i)/τ] + E_i[log E_j[exp(f(u,j)/τ)]]``

The Log-Expectation-Exp structure on the negative side is, per Lemma 1,
exactly KL-constrained DRO over the pointwise loss — this module is the
reference implementation the DRO analysis tools in :mod:`repro.dro`
study.
"""

from __future__ import annotations

import math

from repro.losses.base import Loss
from repro.tensor import Tensor
from repro.tensor import functional as F

__all__ = ["SoftmaxLoss"]


class SoftmaxLoss(Loss):
    """Sampled softmax loss with temperature ``τ``.

    Parameters
    ----------
    tau:
        Temperature; per Remark 3 it is the Lagrange multiplier of the
        DRO problem and encodes the robustness radius ``η``.
    include_positive:
        Whether the positive score joins the denominator.  The paper
        (footnote 1) removes it, following decoupled contrastive
        learning; keep it for the ablation bench.
    scale_by_temperature:
        If True, multiply the loss by ``τ`` to match the exact Eq. (5)
        scaling instead of the conventional InfoNCE-style ``1/τ`` form.
        Both have identical optima; the default matches the pseudocode.

    The objective is one graph node,
    :func:`repro.tensor.functional.fused_softmax_loss` (see the
    fused-kernel contract in :mod:`repro.tensor`).
    """

    name = "sl"

    def __init__(self, tau: float = 0.1, include_positive: bool = False,
                 scale_by_temperature: bool = False):
        if not 0 < tau < math.inf:
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {tau}")
        self.tau = tau
        self.include_positive = include_positive
        self.scale_by_temperature = scale_by_temperature

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        return F.fused_softmax_loss(
            pos, neg, self.tau, include_positive=self.include_positive,
            scale_by_temperature=self.scale_by_temperature)
