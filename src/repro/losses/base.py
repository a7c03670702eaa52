"""Loss-function interface.

Every recommendation loss in the paper (Eqs. 1-5, 18) consumes the model
scores of one mini-batch:

* ``pos_scores`` — shape ``(B,)``, the score ``f(u, i)`` of each
  (user, positive item) pair;
* ``neg_scores`` — shape ``(B, m)``, scores ``f(u, j)`` of ``m``
  sampled (or in-batch) negatives per pair;

and returns a scalar :class:`~repro.tensor.Tensor` to backpropagate.
Scores are raw similarities (cosine by default, see the model layer);
temperatures live inside the losses.
"""

from __future__ import annotations

from repro.tensor import Tensor, as_tensor

__all__ = ["Loss"]


class Loss:
    """Base class for pair/list losses over (positive, negatives) scores."""

    #: human-readable name used by the registry and report tables
    name: str = "loss"

    def __call__(self, pos_scores, neg_scores) -> Tensor:
        pos = as_tensor(pos_scores)
        neg = as_tensor(neg_scores)
        if pos.ndim != 1:
            raise ValueError(f"pos_scores must be 1-D, got shape {pos.shape}")
        if neg.ndim != 2:
            raise ValueError(f"neg_scores must be 2-D, got shape {neg.shape}")
        if neg.shape[1] == 0:
            raise ValueError("neg_scores must hold at least one negative per "
                             f"row, got shape {neg.shape}")
        if pos.shape[0] != neg.shape[0]:
            raise ValueError("batch mismatch between positives "
                             f"({pos.shape[0]}) and negatives ({neg.shape[0]})")
        return self.compute(pos, neg)

    def compute(self, pos: Tensor, neg: Tensor) -> Tensor:
        raise NotImplementedError

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(vars(self).items())
                           if not k.startswith("_"))
        return f"{type(self).__name__}({params})"
