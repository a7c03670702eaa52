"""Quantitative embedding-quality scores.

The paper's Figs. 10-11 argue visually that BSL keeps item clusters
separated under positive noise while SL's embeddings entangle.  Our
synthetic datasets expose ground-truth item clusters, so separation can
be *scored* instead of eyeballed:

* :func:`silhouette_score` — classic cluster-separation measure;
* :func:`cluster_separation_ratio` — between/within centroid distances;
* :func:`alignment_uniformity` — the alignment/uniformity pair from
  Wang & Isola, standard diagnostics for contrastive embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.scoring import normalize_rows

__all__ = ["silhouette_score", "cluster_separation_ratio",
           "alignment_uniformity"]


def silhouette_score(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points (Euclidean).

    s(i) = (b(i) - a(i)) / max(a(i), b(i)) where ``a`` is the mean
    intra-cluster distance and ``b`` the smallest mean distance to
    another cluster.  Exact O(n^2) computation.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    sq = (x ** 2).sum(axis=1)
    dists = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * x @ x.T, 0.0))
    scores = np.zeros(len(x))
    masks = {c: labels == c for c in unique}
    for i in range(len(x)):
        own = masks[labels[i]].copy()
        own[i] = False
        if own.sum() == 0:
            scores[i] = 0.0
            continue
        a = dists[i, own].mean()
        b = min(dists[i, masks[c]].mean() for c in unique if c != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def cluster_separation_ratio(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean between-centroid distance over mean within-cluster spread.

    Larger = better separated.  Robust to a few tiny clusters.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    centroids, spreads = [], []
    for c in unique:
        members = x[labels == c]
        if len(members) < 2:
            continue
        centroid = members.mean(axis=0)
        centroids.append(centroid)
        spreads.append(np.linalg.norm(members - centroid, axis=1).mean())
    if len(centroids) < 2:
        raise ValueError("need at least 2 populated clusters")
    centroids = np.asarray(centroids)
    diffs = centroids[:, None, :] - centroids[None, :, :]
    between = np.linalg.norm(diffs, axis=-1)
    n = len(centroids)
    mean_between = between[np.triu_indices(n, k=1)].mean()
    mean_within = float(np.mean(spreads))
    return float(mean_between / max(mean_within, 1e-12))


def alignment_uniformity(x: np.ndarray, labels: np.ndarray,
                         t: float = 2.0) -> tuple[float, float]:
    """(alignment, uniformity) on the unit sphere.

    Alignment: mean squared distance between normalized embeddings of
    same-cluster pairs (lower is better).  Uniformity:
    ``log E[exp(-t ||zi - zj||^2)]`` over all pairs (lower is better).
    """
    z = normalize_rows(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels)
    sq = (z ** 2).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * z @ z.T, 0.0)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    alignment = float(d2[same].mean()) if same.any() else 0.0
    off_diag = ~np.eye(len(z), dtype=bool)
    uniformity = float(np.log(np.exp(-t * d2[off_diag]).mean()))
    return alignment, uniformity
