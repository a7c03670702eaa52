"""NCL backbone (Lin et al., WWW 2022), simplified.

Neighborhood-enriched Contrastive Learning augments LightGCN with two
contrastive objectives:

* **structural**: a node's final embedding is aligned with its
  even-hop propagated embedding (structural neighbours of the same
  node type);
* **semantic (prototype)**: embeddings are aligned with their k-means
  prototype, refreshed periodically during training.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.kmeans import kmeans
from repro.data.dataset import InteractionDataset
from repro.data.sampling import TrainingBatch
from repro.losses.contrastive import InfoNCELoss
from repro.models.lightgcn import LightGCN
from repro.tensor import Tensor, no_grad, ops
from repro.tensor import functional as F
from repro.tensor.random import ensure_rng

__all__ = ["NCL"]


class NCL(LightGCN):
    """LightGCN + structural and prototype contrastive branches.

    Parameters
    ----------
    ssl_weight:
        Coefficient of the structural branch.
    proto_weight:
        Coefficient of the prototype branch (0 disables k-means).
    num_prototypes:
        Number of k-means prototypes per node type.
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 num_layers: int = 2, ssl_weight: float = 0.1,
                 proto_weight: float = 0.05, num_prototypes: int = 8,
                 ssl_tau: float = 0.2, rng=None):
        super().__init__(dataset, dim=dim, num_layers=num_layers, rng=rng)
        if ssl_weight < 0 or proto_weight < 0:
            raise ValueError("branch weights must be non-negative")
        self.ssl_weight = ssl_weight
        self.proto_weight = proto_weight
        self.num_prototypes = num_prototypes
        self._infonce = InfoNCELoss(tau=ssl_tau)
        self._proto_rng = ensure_rng(rng)
        self._user_protos: np.ndarray | None = None
        self._item_protos: np.ndarray | None = None

    # ------------------------------------------------------------------
    def on_epoch_start(self, rng) -> None:
        """Refresh k-means prototypes from the current embeddings."""
        if self.proto_weight == 0:
            return
        with no_grad():
            users_t, items_t = self.propagate()
        k_users = min(self.num_prototypes, self.num_users)
        k_items = min(self.num_prototypes, self.num_items)
        user_centroids, user_labels = kmeans(users_t.data, k_users,
                                             rng=self._proto_rng)
        item_centroids, item_labels = kmeans(items_t.data, k_items,
                                             rng=self._proto_rng)
        self._user_protos = user_centroids[user_labels]
        self._item_protos = item_centroids[item_labels]

    def _noise_free_mean(self, adjacency) -> Tensor:
        # The per-hop chain, not one layer-mean node: the auxiliary loss
        # reads its hop tensors, which the propagation cache then shares.
        return self._chain_mean(adjacency)

    def _layer_embeddings(self) -> list[Tensor]:
        # Shares the propagation cache with batch_scores' propagate():
        # within one training step both walk the identical spmv chain,
        # so the auxiliary branch reuses the already-built nodes.
        return self._layer_tensors(self.adjacency)

    def auxiliary_loss(self, batch: TrainingBatch) -> Tensor | None:
        if self.ssl_weight == 0 and self.proto_weight == 0:
            return None
        layers = self._layer_embeddings()
        users = np.unique(batch.users)
        items = np.unique(batch.positives) + self.num_users

        total = None
        if self.ssl_weight:
            # structural: layer-0 vs layer-2 (even hop = same node type)
            hop = min(2, self.num_layers)
            base, even = layers[0], layers[hop]
            struct = (self._infonce(ops.take_rows(base, users),
                                    ops.take_rows(even, users))
                      + self._infonce(ops.take_rows(base, items),
                                      ops.take_rows(even, items)))
            total = self.ssl_weight * struct
        if self.proto_weight and self._user_protos is not None:
            stacked = ops.stack(layers, axis=0).mean(axis=0)
            protos = np.concatenate([self._user_protos, self._item_protos])
            proto = (self._infonce(ops.take_rows(stacked, users),
                                   Tensor(protos[users]))
                     + self._infonce(ops.take_rows(stacked, items),
                                     Tensor(protos[items])))
            proto_term = self.proto_weight * proto
            total = proto_term if total is None else total + proto_term
        return total
