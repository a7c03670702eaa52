"""SimGCL backbone (Yu et al., SIGIR 2022).

"Are graph augmentations necessary?" — SimGCL drops SGL's structural
augmentation and instead perturbs each propagation layer with uniform
random noise projected onto the embedding's sign, contrasting two such
noisy forward passes.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.sampling import TrainingBatch
from repro.losses.contrastive import InfoNCELoss
from repro.models.lightgcn import LightGCN
from repro.scoring import normalize_rows
from repro.tensor import Tensor, ops
from repro.tensor.random import ensure_rng

__all__ = ["SimGCL"]


class SimGCL(LightGCN):
    """LightGCN with noise-perturbed contrastive views.

    Parameters
    ----------
    noise_eps:
        Magnitude ε of the per-layer noise (paper default 0.1).
    ssl_weight, ssl_tau:
        InfoNCE branch coefficient and temperature.
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 num_layers: int = 2, noise_eps: float = 0.1,
                 ssl_weight: float = 0.1, ssl_tau: float = 0.2, rng=None):
        super().__init__(dataset, dim=dim, num_layers=num_layers, rng=rng)
        if noise_eps < 0:
            raise ValueError("noise_eps must be non-negative")
        self.noise_eps = noise_eps
        self.ssl_weight = ssl_weight
        self._infonce = InfoNCELoss(tau=ssl_tau)
        self._noise_rng = ensure_rng(rng)

    def _noisy_propagate(self) -> tuple[Tensor, Tensor]:
        """One forward pass with sign-aligned uniform noise per layer."""

        def add_noise(layer: Tensor) -> Tensor:
            raw = self._noise_rng.random(layer.shape)
            noise = (np.sign(layer.data) * normalize_rows(raw)
                     * self.noise_eps).astype(layer.dtype)
            return layer + Tensor(noise)

        return self._propagate_on(self.adjacency, noise_fn=add_noise)

    def auxiliary_loss(self, batch: TrainingBatch) -> Tensor | None:
        if self.ssl_weight == 0:
            return None
        u1, i1 = self._noisy_propagate()
        u2, i2 = self._noisy_propagate()
        users = np.unique(batch.users)
        items = np.unique(batch.positives)
        user_ssl = self._infonce(ops.take_rows(u1, users),
                                 ops.take_rows(u2, users))
        item_ssl = self._infonce(ops.take_rows(i1, items),
                                 ops.take_rows(i2, items))
        return self.ssl_weight * (user_ssl + item_ssl)
