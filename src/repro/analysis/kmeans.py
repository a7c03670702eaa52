"""Plain k-means (Lloyd's algorithm) on numpy.

Used by the NCL backbone for its prototype-contrastive branch
(semantic neighbours), by the ANN tier's coarse quantizer and PQ
codebooks, and available as a general analysis utility.

The cost of a call is its GEMMs: ``‖x‖²`` and ``2·x`` are computed once,
k-means++ seeding keeps a running minimum (one single-column GEMM per
draw), and a Lloyd step is one distance GEMM into a reused ``(n, k)``
buffer, one ``argmin`` and one one-hot sparse product for the cluster
sums.  ``tests/oracles.py::kmeans`` is the per-cluster loop this
reproduces (see ``docs/ann.md``, "Build cost", for the exactness
contract).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.random import ensure_rng

__all__ = ["kmeans", "sq_dists"]


def kmeans(x: np.ndarray, n_clusters: int, n_iter: int = 20,
           rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of ``x`` into ``n_clusters`` groups.

    Returns ``(centroids, labels)``.  Initialization is k-means++-style
    (distance-weighted seeding); the clusters left empty by a step are
    reseeded to the farthest points, the e-th empty cluster (in index
    order) to the e-th farthest point.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if not 1 <= n_clusters <= len(x):
        raise ValueError(f"need 1 <= n_clusters <= {len(x)}, "
                         f"got {n_clusters}")
    rng = ensure_rng(rng)
    x = np.ascontiguousarray(x)
    n = len(x)
    x2, x_sq = 2.0 * x, _row_sq(x)

    centroids = _plus_plus_init(x, x2, x_sq, n_clusters, rng)
    labels = np.zeros(n, dtype=np.int64)
    dists, scratch = np.empty((n, n_clusters)), np.empty((n, n_clusters))
    ones = np.ones(n)
    for _ in range(n_iter):
        _sq_dists(x2, x_sq, centroids, dists, scratch)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # One-hot (k, n) CSR whose rows list each cluster's members in
        # ascending order: the product adds them in the order
        # ``members.mean(axis=0)`` does.
        counts = np.bincount(labels, minlength=n_clusters)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        onehot = sp.csr_matrix(
            (ones, np.argsort(labels, kind="stable"), indptr),
            shape=(n_clusters, n))
        filled = counts > 0
        centroids[filled] = (onehot @ x)[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if len(empty):
            farthest = np.argsort(-dists.min(axis=1), kind="stable")
            centroids[empty] = x[farthest[:len(empty)]]
    return centroids, labels


def _plus_plus_init(x: np.ndarray, x2: np.ndarray, x_sq: np.ndarray,
                    k: int, rng) -> np.ndarray:
    """k-means++ seeds: each draw folds in the distances to the newest
    centroid only, keeping ``nearest`` the running minimum."""
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    nearest = np.full(n, np.inf)
    column, scratch = np.empty((n, 1)), np.empty((n, 1))
    for j in range(1, k):
        _sq_dists(x2, x_sq, centroids[j - 1:j], column, scratch)
        np.minimum(nearest, column[:, 0], out=nearest)
        total = nearest.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=nearest / total)]
    return centroids


def sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, ``(len(x), len(centroids))``.

    Uses the expanded form ``max((‖x‖² + ‖c‖²) − 2·x·cᵀ, 0)`` (the clamp
    because cancellation can push tiny distances negative).  Shared by
    k-means and the ANN tier's list assignment / PQ encoding, so the
    numerics live in one place.
    """
    return _sq_dists(2.0 * x, _row_sq(x), centroids)


def _row_sq(x: np.ndarray) -> np.ndarray:
    return (x ** 2).sum(axis=1, keepdims=True)


def _sq_dists(x2: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray,
              out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`sq_dists` from ``x2 = 2·x``, in the formula's operation
    order, written into ``out`` (with ``scratch`` for ``‖x‖² + ‖c‖²``)
    when the caller reuses buffers."""
    gram = np.matmul(x2, centroids.T, out=out)
    base = np.add(x_sq, (centroids ** 2).sum(axis=1), out=scratch)
    np.subtract(base, gram, out=gram)
    return np.maximum(gram, 0.0, out=gram)
