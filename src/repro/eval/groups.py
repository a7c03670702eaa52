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
from repro.eval.masking import mask_seen_items
from repro.eval.metrics import rank_items
from repro.models.base import Recommender

__all__ = ["group_ndcg", "fairness_gap"]


def group_ndcg(model: Recommender, dataset: InteractionDataset,
               k: int = 20, n_groups: int = 10,
               batch_users: int = 256) -> np.ndarray:
    """Per-popularity-group NDCG@k, averaged over users.

    For user ``u`` with ideal DCG ``IDCG_u``, a hit at rank ``r`` on an
    item of group ``g`` adds ``(1/log2(r+2)) / IDCG_u`` to group ``g``.
    Summing per user and averaging over users yields a decomposition
    whose total equals the standard NDCG@k.

    Returns
    -------
    Array of shape ``(n_groups,)``, index 0 = least popular decile.
    """
    groups = dataset.popularity_groups(n_groups)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    test_users = np.flatnonzero(np.diff(dataset.test_csr()[0]))
    totals = np.zeros(n_groups)
    for lo in range(0, len(test_users), batch_users):
        users = test_users[lo:lo + batch_users]
        scores = model.predict_scores(user_ids=users)
        mask_seen_items(scores, *dataset.train_csr(), users)
        top = rank_items(scores, k)
        for row, u in enumerate(users):
            relevant = set(dataset.test_items_by_user[u].tolist())
            idcg = discounts[: min(len(relevant), k)].sum()
            for rank, item in enumerate(top[row]):
                if int(item) in relevant:
                    totals[groups[item]] += discounts[rank] / idcg
    return totals / max(1, len(test_users))


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
