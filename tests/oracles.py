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
``group_ndcg_per_user`` and ``recommendation_counts_per_user`` are the
popularity-group NDCG and the exposure counts with per-user masking;
:mod:`repro.eval.groups` and :mod:`repro.eval.diversity` mask through
the shared CSR scatter and must reproduce their arrays exactly.
``positive_mask`` is the dense ``(num_users, num_items)`` train mask
that datasets no longer build; sampler and ``batch_contains`` tests
check the CSR-derived batch views against it.
``kmeans`` is Lloyd's algorithm as a per-cluster loop over boolean
masks, with seeding that recomputes every distance per draw; the
GEMM-only :func:`repro.analysis.kmeans.kmeans` must reproduce its
labels and centroid bytes, and its ``sq_dists`` (the distance formula
as one expression) the bytes of the buffered one.
``ivf_candidates_csr`` is the set of items an IVF search may return: the
postings of every list :meth:`repro.ann.ivf.IVFIndexData.plan` probes,
through a dense ``(users, catalogue)`` membership matrix; the list-major
:class:`repro.ann.ivf.IVFFlatIndex` must rank exactly within it.
``merge_partials_heap`` is the sharded router's merge as a per-row k-way
heap over the shards' canonically sorted partial lists; the one-sort
:func:`repro.serve.router._merge_partials` must reproduce its items and
score bits, its underflow error and its degraded padding.
``with_items`` hand-builds a hostile snapshot: a 1×1 set like a loaded
one but over an item table a test edited in memory, with no files
behind it.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ann.ivf import _rows_by_list
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


def positive_mask(dataset) -> np.ndarray:
    """Dense boolean mask of the training pairs, scattered from the pairs."""
    mask = np.zeros((dataset.num_users, dataset.num_items), dtype=bool)
    mask[dataset.train_pairs[:, 0], dataset.train_pairs[:, 1]] = True
    return mask


def evaluate_per_user(model, dataset, ks=(20,),
                      metric_names=("recall", "ndcg")) -> EvalResult:
    """Full-ranking evaluation as a per-user loop over the metric functions."""
    ks = sorted(set(int(k) for k in ks))
    users = np.array([u for u in range(dataset.num_users)
                      if len(dataset.test_items_by_user[u])], dtype=np.int64)
    scores = model.scoring_tables().scores(users)
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


def _masked_top(model, dataset, users, k):
    """Top-``k`` of ``users`` with each seen item set to -inf row by row."""
    scores = model.scoring_tables().scores(users)
    for row, u in enumerate(users):
        seen = dataset.train_items_by_user[u]
        if len(seen):
            scores[row, seen] = -np.inf
    return M.rank_items(scores, k)


def group_ndcg_per_user(model, dataset, k=20, n_groups=10, batch_users=256):
    """Per-popularity-group NDCG@k with per-user masking and ``set`` probes."""
    groups = dataset.popularity_groups(n_groups)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    test_users = [u for u in range(dataset.num_users)
                  if len(dataset.test_items_by_user[u]) > 0]
    totals = np.zeros(n_groups)
    for lo in range(0, len(test_users), batch_users):
        users = np.asarray(test_users[lo:lo + batch_users])
        top = _masked_top(model, dataset, users, k)
        for row, u in enumerate(users):
            relevant = set(dataset.test_items_by_user[u].tolist())
            idcg = discounts[: min(len(relevant), k)].sum()
            for rank, item in enumerate(top[row]):
                if int(item) in relevant:
                    totals[groups[item]] += discounts[rank] / idcg
    return totals / max(1, len(test_users))


def recommendation_counts_per_user(model, dataset, k=20, batch_users=256):
    """Top-``k`` appearances per item, masked per user, ``np.add.at``."""
    counts = np.zeros(dataset.num_items, dtype=np.int64)
    users = np.arange(dataset.num_users)
    for lo in range(0, len(users), batch_users):
        top = _masked_top(model, dataset, users[lo:lo + batch_users], k)
        np.add.at(counts, top.ravel(), 1)
    return counts


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


def ivf_candidates_csr(data, vectors, seen_counts, k, nprobe=None,
                       filter_seen=True, scoring="inner"):
    """Per-user candidate ids, CSR layout, ascending global ids.

    Row ``r`` of the request block may only be served items in
    ``ids[indptr[r]:indptr[r + 1]]`` (de-duplicated: a spilled item
    probed through two lists appears once).
    """
    probes = data.plan(vectors, seen_counts, k, nprobe, filter_seen,
                       scoring)
    member = np.zeros((len(vectors), data.num_items), dtype=bool)
    for c, rows, _ in _rows_by_list(probes, data.nlist):
        member[rows[:, None], data.list_ids(c)] = True
    indptr = np.concatenate([np.zeros(1, np.int64),
                             np.cumsum(member.sum(axis=1))])
    return indptr, np.nonzero(member)[1]


def merge_partials_heap(partials, k, allow_underflow=False):
    """K-way heap merge of per-shard ``(ids, scores)`` partials, per row.

    Each partial row is sorted by ``(score desc, id asc)``; the heap key
    ``(-score, id)`` keeps that order across shards.  Fewer than ``k``
    candidates raise, or with ``allow_underflow`` pad with ``-1`` /
    ``-inf``.
    """
    m = partials[0][0].shape[0]
    out_items = np.empty((m, k), dtype=np.int64)
    out_scores = np.empty((m, k), dtype=np.float64)
    for row in range(m):
        heap = [(-scores[row, 0], int(ids[row, 0]), s, 0)
                for s, (ids, scores) in enumerate(partials) if ids.shape[1]]
        heapq.heapify(heap)
        for rank in range(k):
            if not heap:
                if allow_underflow:
                    out_items[row, rank:] = -1
                    out_scores[row, rank:] = -np.inf
                    break
                total = sum(ids.shape[1] for ids, _ in partials)
                raise ValueError(
                    f"partial top-K underflow: {total} candidates across "
                    f"{len(partials)} shards cannot fill k={k}; every "
                    f"partial must carry min(k, shard_size) columns")
            neg_score, gid, s, pos = heapq.heappop(heap)
            out_items[row, rank] = gid
            out_scores[row, rank] = -neg_score
            ids, scores = partials[s]
            if pos + 1 < ids.shape[1]:
                heapq.heappush(heap, (-scores[row, pos + 1],
                                      int(ids[row, pos + 1]), s, pos + 1))
    return out_items, out_scores


def with_items(snapshot, items):
    """A 1×1 :class:`repro.serve.shard.ShardedSnapshot` with
    ``snapshot``'s manifests, user table and seen-item CSR over another
    ``items`` table; its version is ``snapshot``'s."""
    from repro.serve.shard import ItemShard, ShardedSnapshot
    (item,) = snapshot.item_shards
    return ShardedSnapshot(snapshot.manifest, snapshot.user_shards,
                           [ItemShard(item.manifest, item.ids, items)])
