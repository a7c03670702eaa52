"""Reference forms of the objectives and of the evaluator.

``src/`` computes SL, BSL, InfoNCE and the ranking metrics one way each
(a fused kernel, a chunked array pass).  The slow, obviously-right forms
live here, written only from public :mod:`repro.tensor` /
:mod:`repro.eval.metrics` functions, and the parity tests compare the
production path against them.  ``catalogue_batch_scores`` is the oracle
of ``fused_sampled_scores``: the batch scored against the whole catalogue
through one ``(B, num_items)`` block, then gathered.
``adam_rows`` / ``sgd_rows`` are the row-sparse optimizers' update
arithmetic in plain fancy indexing and temporaries, and ``adam_table``
dense Adam's whole-table step; the chunked in-place kernels of
:mod:`repro.nn.optim` must reproduce their bits.
``layer_mean_chain`` is LightGCN's layer mean as one graph node per hop
plus ``stack`` and ``mean``; :func:`repro.graph.propagation.layer_mean`
must reproduce its values and gradients bit for bit.
``kmeans`` is Lloyd's algorithm as a per-cluster loop over boolean
masks, with seeding that recomputes every distance per draw; the
GEMM-only :func:`repro.analysis.kmeans.kmeans` must reproduce its
labels and centroid bytes, and its ``sq_dists`` (the distance formula
as one expression) the bytes of the buffered one.
"""

from __future__ import annotations

import numpy as np

from repro.eval import metrics as M
from repro.eval.evaluator import EvalResult
from repro.graph.propagation import spmm
from repro.tensor import as_tensor, ops
from repro.tensor import functional as F
from repro.tensor.random import ensure_rng

_METRIC_FNS = {
    "recall": M.recall_at_k,
    "ndcg": M.ndcg_at_k,
    "precision": M.precision_at_k,
    "hit": M.hit_rate_at_k,
    "map": M.average_precision_at_k,
}


def softmax_loss(pos, neg, tau, include_positive=False,
                 scale_by_temperature=False):
    """SL, Eq. (5): ``mean_b[-pos_b/τ + logsumexp_j(neg_bj/τ)]``."""
    pos, neg = as_tensor(pos), as_tensor(neg)
    logits = neg / tau
    if include_positive:
        logits = ops.concatenate([pos.unsqueeze(1) / tau, logits], axis=1)
    loss = (-pos / tau + F.logsumexp(logits, axis=1)).mean()
    return loss * tau if scale_by_temperature else loss


def bsl_loss(pos, neg, tau1, tau2, pooling="mean"):
    """BSL, Eq. (18), for both batch estimators."""
    pos, neg = as_tensor(pos), as_tensor(neg)
    # Negative part: τ2 · log E_j exp(f(u,j)/τ2), the same DRO structure
    # as SL (Lemma 1).
    neg_part = tau2 * F.logmeanexp(neg / tau2, axis=1)
    if pooling == "mean":
        # Paper pseudocode: one extra line vs. SL — the pow(τ1/τ2) on the
        # denominator, i.e. a (τ1/τ2)-weighted negative part.
        return (-pos / tau1 + (neg_part / tau2) * (tau1 / tau2)).mean()
    # Strict Eq. (18): log-E-exp over the positive side.  Rows with a low
    # robust margin receive exponentially less weight — the
    # positive-denoising worst-case reweighting.
    return -tau1 * F.logmeanexp((pos - neg_part) / tau1)


def infonce_loss(z1, z2, tau):
    """InfoNCE: each diagonal similarity against its row."""
    z1 = F.l2_normalize(as_tensor(z1), axis=1)
    z2 = F.l2_normalize(as_tensor(z2), axis=1)
    sims = F.pairwise_scores(z1, z2) / tau                   # (B, B)
    diag = sims[np.arange(z1.shape[0]), np.arange(z1.shape[0])]
    return (-diag + F.logsumexp(sims, axis=1)).mean()


def catalogue_batch_scores(model, batch):
    """``(pos, neg)`` of a training batch through a ``(B, num_items)`` block.

    Normalise the tables (cosine), one matmul of the batch users against
    every item, gather the positive and negative columns; the gradient is
    the scatter-add through the gathers.
    """
    users_t, items_t = model.propagate()
    if model.train_scoring == "cosine":
        users_t = F.l2_normalize(users_t, axis=-1)
        items_t = F.l2_normalize(items_t, axis=-1)
    u = ops.take_rows(users_t, batch.users)               # (B, d)
    all_scores = ops.matmul(u, items_t.T)                 # (B, n_items)
    if model.train_scoring == "euclidean":
        # -||u - i||^2 = 2 u.i - ||u||^2 - ||i||^2 over the catalogue
        u_sq = (u * u).sum(axis=1, keepdims=True)         # (B, 1)
        i_sq = (items_t * items_t).sum(axis=1)            # (n_items,)
        all_scores = 2.0 * all_scores - u_sq - i_sq
    rows = np.arange(len(batch))
    return (all_scores[rows, batch.positives],
            all_scores[rows[:, None], batch.negatives])


def evaluate_per_user(model, dataset, ks=(20,),
                      metric_names=("recall", "ndcg")) -> EvalResult:
    """Full-ranking evaluation as a per-user loop over the metric functions."""
    ks = sorted(set(int(k) for k in ks))
    users = np.array([u for u in range(dataset.num_users)
                      if len(dataset.test_items_by_user[u])], dtype=np.int64)
    scores = model.predict_scores(user_ids=users)
    for row, u in enumerate(users):
        seen = dataset.train_items_by_user[u]
        if len(seen):
            scores[row, seen] = -np.inf
    top = M.rank_items(scores, max(ks))
    per_user = {f"{m}@{k}": np.zeros(len(users))
                for m in metric_names for k in ks}
    for row, u in enumerate(users):
        relevant = dataset.test_items_by_user[u]
        for k in ks:
            for m in metric_names:
                per_user[f"{m}@{k}"][row] = _METRIC_FNS[m](top[row, :k],
                                                           relevant)
    return EvalResult({key: float(vals.mean())
                       for key, vals in per_user.items()},
                      per_user=per_user, evaluated_users=users)


def adam_rows(p, m, v, rows, g, step_nums, *, lr, betas=(0.9, 0.999),
              eps=1e-8, weight_decay=0.0):
    """One Adam update of ``rows`` (ids or ``slice(None)``) of arrays
    ``p``/``m``/``v`` in place, at a scalar or per-row step number."""
    b1, b2 = betas
    if weight_decay:
        g = g + weight_decay * p[rows]
    m[rows] = b1 * m[rows] + (1.0 - b1) * g
    v[rows] = b2 * v[rows] + (1.0 - b2) * g * g
    steps = np.asarray(step_nums, dtype=np.float64)
    if steps.ndim:
        steps = steps.reshape((-1,) + (1,) * (p.ndim - 1))
    m_hat = m[rows] / (1.0 - b1 ** steps)
    v_hat = v[rows] / (1.0 - b2 ** steps)
    p[rows] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_table(p, m, v, g, step, *, lr, betas=(0.9, 0.999), eps=1e-8,
               weight_decay=0.0):
    """Dense Adam's whole-table step in place, bias terms as Python
    floats (numpy's power ufunc rounds e.g. ``0.999 ** 7`` differently)."""
    b1, b2 = betas
    if weight_decay:
        g = g + weight_decay * p
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def sgd_rows(p, vel, rows, g, *, lr, momentum=0.0, weight_decay=0.0):
    """One SGD update of ``rows`` of ``p`` (and velocity ``vel``) in place."""
    if weight_decay:
        g = g + weight_decay * p[rows]
    if momentum:
        vel[rows] = momentum * vel[rows] + g
        g = vel[rows]
    p[rows] -= lr * g


def layer_mean_chain(adjacency, ego, num_layers):
    """``mean(E⁰ … Eᴸ)``: ``Eˡ⁺¹ = spmm(adjacency, Eˡ)``, stacked, averaged."""
    layers = [as_tensor(ego)]
    for _ in range(num_layers):
        layers.append(spmm(adjacency, layers[-1]))
    return ops.stack(layers, axis=0).mean(axis=0)


def sq_dists(x, centroids):
    """``max((‖x‖² + ‖c‖²) − 2·x·cᵀ, 0)`` in one expression."""
    x_sq = (x ** 2).sum(axis=1, keepdims=True)
    c_sq = (centroids ** 2).sum(axis=1)
    return np.maximum(x_sq + c_sq - 2.0 * x @ centroids.T, 0.0)


def kmeans(x, n_clusters, n_iter=20, rng=None):
    """``(centroids, labels)``: k-means++ seeding, then Lloyd steps
    until the labels repeat; the e-th empty cluster takes the e-th
    farthest point."""
    x = np.asarray(x, dtype=np.float64)
    rng = ensure_rng(rng)
    centroids = [x[rng.integers(len(x))]]
    for _ in range(n_clusters - 1):
        dists = sq_dists(x, np.asarray(centroids)).min(axis=1)
        total = dists.sum()
        if total <= 0:
            centroids.append(x[rng.integers(len(x))])
        else:
            centroids.append(x[rng.choice(len(x), p=dists / total)])
    centroids = np.asarray(centroids)
    labels = np.zeros(len(x), dtype=np.int64)
    for _ in range(n_iter):
        dists = sq_dists(x, centroids)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        farthest = np.argsort(-dists.min(axis=1), kind="stable")
        empties = 0
        for c in range(n_clusters):
            members = x[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = x[farthest[empties]]
                empties += 1
    return centroids, labels
