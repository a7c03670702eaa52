"""NIA-GCN backbone (Sun et al., SIGIR 2020), simplified.

Neighbor-Interaction-Aware GCN augments the usual neighbourhood sum
with *pairwise neighbour interactions* (PNI): for node ``v`` with
neighbours ``N(v)``, the interaction term aggregates element-wise
products over unordered neighbour pairs.  We use the algebraic identity

``Σ_{i<j∈N(v)} e_i ⊙ e_j = ((Σ e_i)² − Σ e_i²) / 2``

to compute it with two sparse products (exact, no sampling), dropping
the original paper's per-depth attention for compactness.  The layer
output mixes the ego, sum-aggregated and interaction-aggregated
signals through learned transforms.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.graph.adjacency import adjacency_from_pairs
from repro.graph.propagation import spmm
from repro.models.base import Recommender
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.tensor import Tensor, ops
from repro.tensor import functional as F
from repro.tensor.random import spawn_rngs

__all__ = ["NIAGCN"]


class NIAGCN(Recommender):
    """GCN with exact pairwise-neighbour interaction aggregation."""

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 num_layers: int = 2, rng=None):
        super().__init__(dataset.num_users, dataset.num_items, dim,
                         train_scoring="cosine", test_scoring="inner")
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.num_layers = num_layers
        rngs = spawn_rngs(rng, 2 + num_layers)
        self.user_embedding = Embedding(dataset.num_users, dim, rng=rngs[0])
        self.item_embedding = Embedding(dataset.num_items, dim, rng=rngs[1])
        self.mix_layers = [Linear(3 * dim, dim, rng=rngs[2 + l])
                           for l in range(num_layers)]
        # Row-normalized (mean) adjacency keeps the PNI term bounded.
        adj = adjacency_from_pairs(dataset.train_pairs, dataset.num_users,
                                   dataset.num_items)
        degree = adj.sum(axis=1).A.ravel()
        degree[degree == 0] = 1.0
        self._adjacency = (sp.diags(1.0 / degree) @ adj).astype(np.float32)

    def propagate(self) -> tuple[Tensor, Tensor]:
        current = ops.concatenate(
            [self.user_embedding.all(), self.item_embedding.all()], axis=0)
        layers = [current]
        for mix in self.mix_layers:
            neighbour_sum = spmm(self._adjacency, current)
            neighbour_sq = spmm(self._adjacency, current * current)
            pni = (neighbour_sum * neighbour_sum - neighbour_sq) * 0.5
            stacked = ops.concatenate([current, neighbour_sum, pni], axis=1)
            current = mix(stacked).tanh()
            layers.append(F.l2_normalize(current, axis=1))
        final = ops.concatenate(layers, axis=1)
        return final[: self.num_users], final[self.num_users:]
