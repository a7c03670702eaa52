"""Embedding table with gather forward / scatter-add backward.

This is the core trainable object of every collaborative-filtering
backbone in the paper: user and item ID embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, ops

__all__ = ["Embedding"]


class Embedding(Module):
    """A learnable lookup table of shape ``(num_embeddings, dim)``.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size (number of users or items).
    dim:
        Embedding dimensionality (the paper fixes 64, Fig. 12 sweeps it).
    init:
        Callable ``(shape, rng) -> ndarray``; defaults to Xavier uniform
        as the paper unifies initialization with Xavier.
    rng:
        Seed or generator for the initializer.
    sparse_grad:
        When True, lookups produce row-sparse gradients
        (:class:`~repro.tensor.sparse.RowSparseGrad`) touching only the
        gathered rows — pair with ``SparseAdam``/``SparseSGD``; dense
        optimizers densify them.  Mirrors
        ``torch.nn.Embedding(sparse=True)``.
    weight:
        Pre-built ``(num_embeddings, dim)`` float64 table to wrap
        instead of drawing a fresh one — the out-of-core path passes a
        writable ``np.memmap`` here so optimizer updates land directly
        in the on-disk table.  Mutually exclusive with ``init``/``rng``.
    """

    def __init__(self, num_embeddings: int, dim: int, init=None, rng=None,
                 sparse_grad: bool = False, weight=None):
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("num_embeddings and dim must be positive, got "
                             f"{num_embeddings} x {dim}")
        if weight is not None:
            if init is not None or rng is not None:
                raise ValueError("weight= is mutually exclusive with "
                                 "init=/rng=")
            if weight.shape != (num_embeddings, dim):
                raise ValueError(f"weight shape {weight.shape} does not match "
                                 f"({num_embeddings}, {dim})")
            if weight.dtype != np.float64:
                raise ValueError(f"weight must be float64, got {weight.dtype}")
            self.weight = Parameter(weight)
        else:
            initializer = init if init is not None else xavier_uniform
            self.weight = Parameter(initializer((num_embeddings, dim),
                                                rng=rng))
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.sparse_grad = bool(sparse_grad)

    def forward(self, indices) -> Tensor:
        """Look up rows; ``indices`` may be any integer array shape."""
        return ops.take_rows(self.weight, np.asarray(indices, dtype=np.int64),
                             sparse_grad=self.sparse_grad)

    def all(self) -> Tensor:
        """Return the full table as a tensor participating in the graph."""
        return self.weight

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.dim})"
