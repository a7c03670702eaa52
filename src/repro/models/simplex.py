"""SimpleX backbone (Mao et al., CIKM 2021).

"A simple and strong baseline": the user representation fuses the ID
embedding with the average of the user's interacted-item embeddings,

``h_u = g · e_u + (1 - g) · mean_{i ∈ S+_u} e_i``

and the model trains with the Cosine Contrastive Loss
(:class:`repro.losses.contrastive.CosineContrastiveLoss`).  The paper
cites SimpleX as evidence that the *loss choice* dominates — exactly
the thesis BSL builds on.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.graph.propagation import spmm
from repro.models.base import Recommender
from repro.nn.embedding import Embedding
from repro.nn.module import Parameter
from repro.tensor import Tensor
from repro.tensor.random import spawn_rngs

__all__ = ["SimpleX"]


class SimpleX(Recommender):
    """MF + averaged behaviour aggregation, intended for the CCL loss.

    Parameters
    ----------
    gate:
        The fusion weight ``g`` between the ID embedding and the
        behaviour average (learned when ``learn_gate=True``).
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 gate: float = 0.5, learn_gate: bool = False, rng=None):
        super().__init__(dataset.num_users, dataset.num_items, dim,
                         train_scoring="cosine", test_scoring="cosine")
        if not 0.0 <= gate <= 1.0:
            raise ValueError("gate must lie in [0, 1]")
        user_rng, item_rng = spawn_rngs(rng, 2)
        self.user_embedding = Embedding(dataset.num_users, dim, rng=user_rng)
        self.item_embedding = Embedding(dataset.num_items, dim, rng=item_rng)
        self._gate_param = Parameter([gate]) if learn_gate else None
        self._gate_value = gate
        # Row-normalized user->item history matrix for the behaviour mean.
        mat = dataset.train_matrix()
        degree = np.asarray(mat.sum(axis=1)).ravel()
        degree[degree == 0] = 1.0
        self._history = (sp.diags(1.0 / degree) @ mat).tocsr().astype(
            np.float32)

    @property
    def gate(self) -> float:
        if self._gate_param is not None:
            return float(np.clip(self._gate_param.data[0], 0.0, 1.0))
        return self._gate_value

    def propagate(self) -> tuple[Tensor, Tensor]:
        items = self.item_embedding.all()
        behaviour = spmm(self._history, items)     # (num_users, dim)
        if self._gate_param is not None:
            g = self._gate_param.clip(0.0, 1.0)
            users = self.user_embedding.all() * g + behaviour * (1.0 - g)
        else:
            g = self._gate_value
            users = self.user_embedding.all() * g + behaviour * (1.0 - g)
        return users, items
