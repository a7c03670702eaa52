"""ENMF-style whole-data baseline (Chen et al., TOIS 2020).

Efficient Neural Matrix Factorization trains *without sampling*: every
unobserved (user, item) cell contributes a down-weighted squared error.
We implement the whole-data weighted regression objective per batch of
users, which is exactly ENMF's loss restricted to the batch (our
catalogues are small enough to score all items densely).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.sampling import TrainingBatch
from repro.models.base import Recommender
from repro.nn.embedding import Embedding
from repro.tensor import Tensor, ops
from repro.tensor import functional as F
from repro.tensor.random import spawn_rngs

__all__ = ["ENMF"]


class ENMF(Recommender):
    """Whole-data weighted MSE matrix factorization (Table II baseline).

    Parameters
    ----------
    negative_weight:
        Uniform confidence weight ``c0`` on unobserved cells (ENMF's
        key hyperparameter, typically well below 1).
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 negative_weight: float = 0.05, rng=None):
        super().__init__(dataset.num_users, dataset.num_items, dim,
                         train_scoring="cosine", test_scoring="cosine")
        if not 0 < negative_weight <= 1:
            raise ValueError("negative_weight must lie in (0, 1]")
        self.negative_weight = negative_weight
        self._dataset = dataset
        user_rng, item_rng = spawn_rngs(rng, 2)
        self.user_embedding = Embedding(dataset.num_users, dim, rng=user_rng)
        self.item_embedding = Embedding(dataset.num_items, dim, rng=item_rng)
        # 0/1 entries: exact in float32, the dtype the scores it masks have
        self._train_matrix = dataset.train_matrix().astype(np.float32)

    def propagate(self) -> tuple[Tensor, Tensor]:
        return self.user_embedding.all(), self.item_embedding.all()

    def custom_loss(self, batch: TrainingBatch) -> Tensor:
        """Whole-data loss over the batch's (unique) users.

        ``L = Σ_u [ Σ_{i∈S+} ((f-1)^2 - c0 f^2) + c0 Σ_{all i} f^2 ]``

        which is the standard ENMF decomposition of the weighted
        regression over observed + unobserved cells.
        """
        users = np.unique(batch.users)
        users_t, items_t = self.propagate()
        u = F.l2_normalize(ops.take_rows(users_t, users), axis=1)
        i = F.l2_normalize(items_t, axis=1)
        scores = F.pairwise_scores(u, i)               # (B, num_items)
        mask = Tensor(self._train_matrix[users].toarray())  # (B, num_items)
        pos_term = (mask * ((scores - 1.0) ** 2 - self.negative_weight
                            * scores ** 2)).sum()
        all_term = self.negative_weight * (scores ** 2).sum()
        return (pos_term + all_term) / len(users)
