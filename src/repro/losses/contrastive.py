"""Auxiliary contrastive losses.

* :class:`InfoNCELoss` — the self-supervised alignment loss used by the
  SSL branches of SGL / SimGCL / LightGCL (Table III backbones).
* :class:`CosineContrastiveLoss` — SimpleX's CCL (Table II baseline):
  a margin-hinged cosine loss.
"""

from __future__ import annotations

import math

from repro.losses.base import Loss
from repro.tensor import Tensor
from repro.tensor import functional as F

__all__ = ["InfoNCELoss", "CosineContrastiveLoss"]


class InfoNCELoss:
    """InfoNCE between two views of the same nodes.

    Given L2-normalized view matrices ``z1, z2`` of shape ``(B, d)``,
    row ``b`` of ``z1`` must match row ``b`` of ``z2`` against all other
    rows (in-batch negatives):

    ``L = -E_b[ log exp(s_bb/τ) / Σ_k exp(s_bk/τ) ]``

    The objective is one graph node,
    :func:`repro.tensor.functional.fused_infonce_loss`.
    """

    name = "infonce"

    def __init__(self, tau: float = 0.2):
        if not 0 < tau < math.inf:
            raise ValueError(f"temperature must be positive and finite, "
                             f"got {tau}")
        self.tau = tau

    def __call__(self, z1, z2) -> Tensor:
        return F.fused_infonce_loss(z1, z2, self.tau)


class CosineContrastiveLoss(Loss):
    """SimpleX's CCL: ``(1 - pos) + (w/m)·Σ_j relu(neg_j - margin)``."""

    name = "ccl"

    def __init__(self, margin: float = 0.4, negative_weight: float = 1.0):
        if not -1.0 <= margin <= 1.0:
            raise ValueError(f"margin must lie in [-1, 1], got {margin}")
        if negative_weight <= 0:
            raise ValueError("negative_weight must be positive")
        self.margin = margin
        self.negative_weight = negative_weight

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        pos_term = (1.0 - pos).mean()
        neg_term = F.relu(neg - self.margin).mean(axis=1).mean()
        return pos_term + self.negative_weight * neg_term
