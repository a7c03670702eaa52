"""Brute-force reference for one user's top-k.

Independent of every index in ``repro.serve``: dense scores straight
from the embedding tables a snapshot was exported from, the seen-item
mask, and a full sort in the canonical ``(score desc, id asc)`` order.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    def __init__(self, users, items, scoring: str):
        self.users, self.items, self.scoring = users, items, scoring
        # einsum: no (n_items, dim) temporary to inflate the run's peak RSS
        self._norms = np.sqrt(np.einsum("ij,ij->i", items, items)) + 1e-12

    def topk(self, user: int, seen, k: int):
        """Top-``k`` ``(item_ids, scores)`` of one user over the table."""
        row = np.asarray(self.users[user], dtype=np.float64)
        scores = np.asarray(self.items @ row, dtype=np.float64)
        if self.scoring == "cosine":
            scores = scores / self._norms / (np.linalg.norm(row) + 1e-12)
        scores[np.asarray(seen, dtype=np.int64)] = -np.inf
        order = np.lexsort((np.arange(len(scores)), -scores))[:k]
        return order, scores[order]

    def matches(self, items_got, scores_got, user: int, seen, k: int,
                atol: float = 1e-9) -> bool:
        """Items equal and scores within ``atol`` of the brute-force answer."""
        want_items, want_scores = self.topk(user, seen, k)
        return (np.array_equal(np.asarray(items_got), want_items)
                and np.allclose(scores_got, want_scores, rtol=0.0, atol=atol))
