"""Dropout layers.

NGCF applies message dropout inside its propagation layers, and the
paper's grid search toggles dropout on the GCN backbones.  Inverted
dropout keeps expected activations unchanged at train time and is the
identity at eval time.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, as_tensor
from repro.tensor.random import ensure_rng

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout with probability ``p`` of zeroing each activation."""

    def __init__(self, p: float = 0.1, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = ensure_rng(rng)

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
