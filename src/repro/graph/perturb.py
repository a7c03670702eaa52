"""Graph perturbations used by the contrastive backbones.

* **Edge dropout** — SGL builds contrastive views by dropping a fraction
  of interaction edges and re-normalizing the adjacency.
* **SVD reconstruction** — LightGCL replaces the stochastic augmentation
  with a low-rank SVD view of the interaction matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.graph.adjacency import normalized_bipartite
from repro.tensor.random import ensure_rng

__all__ = ["edge_dropout_adjacency", "svd_view"]


def edge_dropout_adjacency(dataset: InteractionDataset, drop_ratio: float,
                           rng=None) -> sp.csr_matrix:
    """Drop a fraction of interactions and return the normalized adjacency.

    Matches SGL's ED (edge-dropout) augmentation: each kept view is an
    independently subsampled graph.
    """
    if not 0.0 <= drop_ratio < 1.0:
        raise ValueError(f"drop_ratio must lie in [0, 1), got {drop_ratio}")
    rng = ensure_rng(rng)
    pairs = dataset.train_pairs
    keep = rng.random(len(pairs)) >= drop_ratio
    if not keep.any():  # degenerate tiny-graph edge case
        keep[rng.integers(0, len(pairs))] = True
    return normalized_bipartite(pairs[keep], dataset.num_users,
                                dataset.num_items)


def svd_view(dataset: InteractionDataset, rank: int = 8
             ) -> tuple[np.ndarray, np.ndarray]:
    """Rank-``rank`` SVD factors of the normalized interaction matrix.

    Returns ``(U_s, V_s)`` with shapes ``(num_users, rank)`` and
    ``(num_items, rank)`` such that ``U_s @ V_s.T`` approximates the
    degree-normalized ``R``.  LightGCL propagates embeddings through this
    reconstruction to obtain its second (global) view.
    """
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    mat = dataset.train_matrix().astype(np.float64)
    # Degree-normalize like the adjacency to keep spectra comparable.
    du = np.asarray(mat.sum(axis=1)).ravel()
    di = np.asarray(mat.sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        du_inv = np.power(du, -0.5)
        di_inv = np.power(di, -0.5)
    du_inv[~np.isfinite(du_inv)] = 0.0
    di_inv[~np.isfinite(di_inv)] = 0.0
    norm = sp.diags(du_inv) @ mat @ sp.diags(di_inv)
    rank = min(rank, min(norm.shape) - 1)
    u, s, vt = sp.linalg.svds(norm.tocsc(), k=rank)
    order = np.argsort(s)[::-1]
    u, s, vt = u[:, order], s[order], vt[order]
    sqrt_s = np.sqrt(s)
    return u * sqrt_s, (vt.T * sqrt_s)
