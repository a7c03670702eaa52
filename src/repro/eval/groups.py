"""Popularity-group fairness decomposition (Figs. 4a and 5).

The paper divides items into ten popularity groups and reports the
*cumulative per-group NDCG@20*: each user's NDCG contribution is
attributed to the groups of the hit items, revealing whether a loss
favours popular items (popularity bias) or spreads accuracy across the
tail (fairness).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.eval.evaluator import Evaluator
from repro.models.base import Recommender

__all__ = ["group_ndcg", "fairness_gap"]


def group_ndcg(model: Recommender, dataset: InteractionDataset,
               k: int = 20, n_groups: int = 10,
               batch_users: int = 256) -> np.ndarray:
    """Per-popularity-group NDCG@k, averaged over users.

    For user ``u`` with ideal DCG ``IDCG_u``, a hit at rank ``r`` on an
    item of group ``g`` adds ``(1/log2(r+2)) / IDCG_u`` to group ``g``.
    Summing per user and averaging over users yields a decomposition
    whose total equals the standard NDCG@k.  The gains come from the
    :class:`~repro.eval.evaluator.Evaluator`; one in-order ``bincount``
    sums them user by user, rank by rank (a miss adds an exact 0).

    Returns
    -------
    Array of shape ``(n_groups,)``, index 0 = least popular decile.
    """
    evaluator = Evaluator(dataset, ks=(k,), batch_users=batch_users)
    top = evaluator.top_items(model, k)
    gains = evaluator.ndcg_gains(top).ravel()
    groups = dataset.popularity_groups(n_groups)[top].ravel()
    return np.bincount(groups, gains, n_groups) / len(top)


def fairness_gap(group_values: np.ndarray) -> float:
    """Scalar unfairness: popular-minus-unpopular NDCG mass.

    Defined as the difference between the NDCG captured by the top 30%
    most popular groups and the bottom 50% groups; smaller (or negative)
    means fairer, mirroring the qualitative reading of Fig. 4a.
    """
    n = len(group_values)
    top = group_values[int(np.ceil(0.7 * n)):].sum()
    bottom = group_values[: n // 2].sum()
    return float(top - bottom)
