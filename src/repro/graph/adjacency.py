"""Normalized bipartite adjacency construction (LightGCN/NGCF substrate).

The GCN backbones propagate embeddings over the user-item bipartite
graph ``A = [[0, R], [R^T, 0]]`` using the symmetric normalization
``Ã = D^{-1/2} A D^{-1/2}`` introduced by NGCF/LightGCN.  The graph a
model propagates over is float32, like its tables: a float64 graph
would widen every product it takes part in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.graph.propagation import mark_self_transpose

__all__ = ["bipartite_adjacency", "normalize_adjacency",
           "adjacency_from_pairs", "normalized_bipartite"]


def adjacency_from_pairs(pairs: np.ndarray, num_users: int,
                         num_items: int) -> sp.csr_matrix:
    """Build the (users+items) x (users+items) bipartite adjacency."""
    n = num_users + num_items
    rows = np.concatenate([pairs[:, 0], pairs[:, 1] + num_users])
    cols = np.concatenate([pairs[:, 1] + num_users, pairs[:, 0]])
    data = np.ones(len(rows), dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0  # collapse duplicate interactions
    return adj


def normalize_adjacency(adj: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric normalization ``D^{-1/2} A D^{-1/2}`` (zero-degree safe)."""
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.power(degree, -0.5)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d = sp.diags(inv_sqrt)
    return (d @ adj @ d).tocsr()


def normalized_bipartite(pairs: np.ndarray, num_users: int,
                         num_items: int) -> sp.csr_matrix:
    """Float32 ``Ã`` of an interaction list, memoized as its own CSR
    transpose.

    ``A`` holds both directions of every edge with value 1, and each
    stored value of ``D^-1/2 A D^-1/2`` is the product ``d_i·d_j`` in one
    order or the other, so in canonical CSR form (sorted indices, no
    duplicates) ``Ã`` and ``Ãᵀ`` have the same three arrays.  Backward
    passes then multiply by ``Ã`` itself instead of a second copy.  The
    products are formed in float64 and rounded once, to the dtype of
    the tables the graph propagates; the rounding is elementwise, so the
    two sets of arrays stay equal.
    """
    adj = normalize_adjacency(adjacency_from_pairs(pairs, num_users,
                                                   num_items))
    adj = adj.astype(np.float32)
    return mark_self_transpose(adj) if adj.has_canonical_format else adj


def bipartite_adjacency(dataset: InteractionDataset) -> sp.csr_matrix:
    """Normalized bipartite adjacency of a dataset's training graph."""
    return normalized_bipartite(dataset.train_pairs, dataset.num_users,
                                dataset.num_items)
