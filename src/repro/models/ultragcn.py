"""UltraGCN backbone (Mao et al., CIKM 2021), simplified.

UltraGCN skips explicit message passing entirely: it shows that
infinite-layer LightGCN converges to a constraint of the form
``e_u ≈ Σ_i β_{u,i} e_i`` and optimizes that limit directly with a
weighted BCE objective, plus an item-item co-occurrence constraint.

We implement the two constraint losses on top of plain ID embeddings:

* user-item constraint with the closed-form weights
  ``β_{u,i} = (1/d_u) * sqrt((d_u+1)/(d_i+1))``;
* an item-item term that pulls each positive item toward its top
  co-occurring items (the ``I = R^T R`` graph), with a fixed top-k
  neighbour set computed once at construction.
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

__all__ = ["UltraGCN"]


class UltraGCN(Recommender):
    """Constraint-based MF approximating infinite-depth LightGCN.

    Parameters
    ----------
    item_weight:
        Coefficient of the item-item constraint loss (``gamma``).
    num_item_neighbors:
        Top-k co-occurring items used by the item-item constraint.
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 item_weight: float = 0.5, num_item_neighbors: int = 8,
                 rng=None):
        super().__init__(dataset.num_users, dataset.num_items, dim,
                         train_scoring="cosine", test_scoring="cosine")
        if item_weight < 0:
            raise ValueError("item_weight must be non-negative")
        user_rng, item_rng = spawn_rngs(rng, 2)
        self.user_embedding = Embedding(dataset.num_users, dim, rng=user_rng)
        self.item_embedding = Embedding(dataset.num_items, dim, rng=item_rng)
        self.item_weight = item_weight
        self._beta = self._constraint_weights(dataset)
        self._item_neighbors, self._item_neighbor_w = \
            self._build_item_graph(dataset, num_item_neighbors)

    @staticmethod
    def _constraint_weights(dataset: InteractionDataset
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Per-user / per-item factors of β_{u,i} (their product)."""
        du = np.maximum(dataset.user_degrees().astype(np.float64), 1.0)
        di = dataset.item_popularity.astype(np.float64)
        user_factor = np.sqrt(du + 1.0) / du
        item_factor = 1.0 / np.sqrt(di + 1.0)
        return user_factor, item_factor

    @staticmethod
    def _build_item_graph(dataset: InteractionDataset, k: int):
        mat = dataset.train_matrix()
        co = (mat.T @ mat).toarray().astype(np.float64)
        np.fill_diagonal(co, 0.0)
        deg = co.sum(axis=1)
        deg[deg == 0] = 1.0
        weights = co / deg[:, None]
        k = min(k, dataset.num_items - 1)
        neighbors = np.argsort(-weights, axis=1)[:, :k]
        rows = np.arange(dataset.num_items)[:, None]
        return neighbors, weights[rows, neighbors]

    def propagate(self) -> tuple[Tensor, Tensor]:
        return self.user_embedding.all(), self.item_embedding.all()

    def auxiliary_loss(self, batch: TrainingBatch) -> Tensor:
        """Weighted positive constraint + item-item constraint.

        The base pluggable loss (typically BCE/SL over the batch) plays
        UltraGCN's main term; this hook adds the graph-derived
        constraints with their closed-form weights.
        """
        user_factor, item_factor = self._beta
        users_t, items_t = self.propagate()
        u = F.l2_normalize(ops.take_rows(users_t, batch.users), axis=1)
        i = F.l2_normalize(ops.take_rows(items_t, batch.positives), axis=1)
        beta = Tensor((user_factor[batch.users]
                       * item_factor[batch.positives]).astype(u.dtype))
        pos_scores = (u * i).sum(axis=-1)
        constraint = (beta * F.softplus(-pos_scores)).mean()

        if self.item_weight == 0:
            return constraint
        neigh_idx = self._item_neighbors[batch.positives]      # (B, k)
        neigh_w = Tensor(self._item_neighbor_w[batch.positives]
                         .astype(u.dtype))
        neigh = F.l2_normalize(ops.take_rows(items_t, neigh_idx), axis=-1)
        sim = (u.unsqueeze(1) * neigh).sum(axis=-1)            # (B, k)
        item_term = (neigh_w * F.softplus(-sim)).mean()
        return constraint + self.item_weight * item_term
