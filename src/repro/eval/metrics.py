"""Ranking metrics: Recall@K, NDCG@K, Precision@K, HitRate@K, MAP@K.

All metrics follow the standard top-K full-ranking protocol the paper
uses (LightGCN's evaluation convention): for each user, rank all items
not in the training set and compare the top K against the held-out test
positives.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["recall_at_k", "ndcg_at_k", "precision_at_k", "hit_rate_at_k",
           "average_precision_at_k", "rank_items", "overlap_at_k"]


def _rank_block(scores: np.ndarray, k: int) -> np.ndarray:
    """:func:`rank_items` by one ``argpartition`` over every row.

    The base case: :func:`rank_items` calls it on blocks too narrow for
    two levels, on its candidate block and on fallback rows.  Expects a
    float block and ``1 <= k <= n``.  NaN ranks below ``-inf``, and which
    NaNs fill a list's tail is whatever ``argpartition`` left there.
    """
    n = scores.shape[-1]
    # Selecting the smallest of the negated block keeps NaN last.
    neg = -scores
    part = np.argpartition(neg, k - 1, axis=-1)[..., :k]
    neg_top = np.take_along_axis(neg, part, axis=-1)
    # lexsort: primary key score descending, secondary key item id
    # ascending — the canonical within-list order.
    order = np.lexsort((part, neg_top), axis=-1)
    top = np.take_along_axis(part, order, axis=-1)
    if k == n:
        return top
    # Boundary ties: argpartition picks an arbitrary subset of the items
    # tied with the k-th score, so rows where ties straddle the boundary
    # are patched to keep the smallest tied indices (rare in practice).
    flat_neg = neg.reshape(-1, n)
    flat_top = top.reshape(-1, k)
    flat_kth = np.take_along_axis(neg_top, order[..., -1:],
                                  axis=-1).reshape(-1, 1)
    tied_total = (flat_neg == flat_kth).sum(axis=-1)
    tied_kept = (neg_top.reshape(-1, k) == flat_kth).sum(axis=-1)
    for row in np.flatnonzero(tied_total > tied_kept):
        kept = int(tied_kept[row])
        tied = np.flatnonzero(flat_neg[row] == flat_kth[row, 0])[:kept]
        flat_top[row, k - kept:] = tied
    return top


def rank_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` item indices per row, highest score first.

    The ranking is **canonical**: ties are broken by the smaller item
    index, both inside the returned list and at the selection boundary
    (when items outside the top ``k`` tie with the ``k``-th score, the
    smallest indices among the tied items win).  This makes the result a
    pure function of the ``(score, item id)`` pairs, independent of how
    the score row was computed or partitioned — the contract the sharded
    serving router's k-way merge relies on (see ``docs/sharding.md``).

    **Algorithm.**  Selection is exact and two-level.  With
    ``G = ⌊√(k·n)⌋`` *strided* groups (group ``g`` holds columns
    ``g, g+G, g+2G, …``), one read of the block reduces every row to its
    ``G`` group maxima; the ``k`` best groups of a row name
    ``k·⌈n/G⌉ ≈ √(k·n)`` candidate columns, and only those are gathered
    and ranked, by one ``argpartition`` + ``lexsort`` + boundary-tie
    patch (which is also all that runs on blocks too narrow for two
    levels to shrink the work).  Cost per row: ``n`` reads plus
    ``O(√(k·n))`` selection, and no temporary as wide as the block.
    Views (sliced or Fortran-ordered blocks) and float32 take the same
    path without a copy; non-float input is ranked as float64.

    **Why it is exact.**  Let ``t`` be a row's ``k``-th largest group
    maximum.  Each selected group holds an item ``>= t``, so the
    ``k``-th best item scores ``>= t``.  An item scoring ``> t`` sits in
    a group whose maximum is ``> t``; fewer than ``k`` groups have one,
    so all of them are selected.  An item scoring exactly ``t`` sits in
    a group whose maximum is ``>= t``; when exactly ``k`` groups have
    that, all of them are selected.  So on rows where
    ``count(group max >= t) == k`` the candidates hold every item the
    canonical order can return, boundary ties included, and they are
    laid out in ascending item id, so ranking candidate positions ranks
    item ids.

    **Fallback.**  Every other row is ranked over its full width: group
    maxima tied at the boundary, a NaN score (it makes ``t`` NaN and the
    count 0), fewer than ``k`` groups above ``-inf`` (a masked-out row).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if scores.dtype.kind != "f":
        # Unsigned, minimum-integer and bool scores do not survive the
        # base case's negation.
        scores = scores.astype(np.float64)
    n = scores.shape[-1]
    k = min(k, n)
    # Two levels rank ~2·√(k·n) values per row where one level ranks n:
    # measured break-even is n ≈ 32·k, and below ~1000 columns the extra
    # numpy calls cost more than the columns they skip.
    if n < 32 * k or n < 1024:
        return _rank_block(scores, k)
    flat = scores.reshape(-1, n)
    rows = len(flat)
    groups = math.isqrt(k * n)
    slabs = n // groups
    body = slabs * groups
    # Level 1: a contiguous elementwise maximum over the slabs; the
    # n % groups columns left over belong to the first groups.
    gmax = flat[:, :body].reshape(rows, slabs, groups).max(axis=1)
    head = gmax[:, :n - body]
    np.maximum(head, flat[:, body:], out=head)
    # Level 2: the k best groups, ascending, so that laying their
    # columns out layer by layer puts candidates in ascending item id.
    sel = np.argpartition(gmax, groups - k, axis=1)[:, groups - k:]
    sel.sort(axis=1)
    kth = np.take_along_axis(gmax, sel, axis=1).min(axis=1, keepdims=True)
    exact = np.count_nonzero(gmax >= kth, axis=1) == k
    layers = -(-n // groups)
    cols = (sel[:, None, :] + groups * np.arange(layers)[None, :, None]
            ).reshape(rows, layers * k)
    # Only the last layer can run past the row.  Those slots sit last and
    # score -inf, and every selected group has a real column, so the
    # canonical order never picks one.
    last = cols[:, -k:]
    past = last >= n
    np.minimum(last, n - 1, out=last)
    cand = np.take_along_axis(flat, cols, axis=1)
    cand[:, -k:][past] = -np.inf
    top = np.take_along_axis(cols, _rank_block(cand, k), axis=1)
    redo = np.flatnonzero(~exact)
    if redo.size:
        top[redo] = _rank_block(flat[redo], k)
    return top.reshape(scores.shape[:-1] + (k,))


def overlap_at_k(a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-row overlap between two ``(m, k)`` top-K item lists.

    ``overlap_at_k(exact, approx)`` with the exact index's lists as
    ``a`` is recall@k of an approximate retrieval path against the
    exact ranking — the acceptance metric shared by the quantized
    index, the sharded router and the ANN tier (see ``docs/ann.md``).
    Row order within the lists does not matter; the denominator is
    ``a``'s row length.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if len(a) != len(b):
        raise ValueError(f"lists disagree on row count: {len(a)} vs {len(b)}")
    if a.shape[1] == 0:
        raise ValueError("reference lists must have at least one column")
    per_row = [len(set(ra.tolist()) & set(rb.tolist())) / a.shape[1]
               for ra, rb in zip(a, b)]
    return float(np.mean(per_row)) if per_row else 0.0


def _hit_matrix(top_items: np.ndarray, relevant: set[int]) -> np.ndarray:
    return np.fromiter((item in relevant for item in top_items),
                       dtype=np.float64, count=len(top_items))


def recall_at_k(top_items: np.ndarray, relevant) -> float:
    """|top ∩ relevant| / |relevant| for one user."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        return 0.0
    hits = _hit_matrix(top_items, relevant)
    return float(hits.sum() / len(relevant))


def precision_at_k(top_items: np.ndarray, relevant) -> float:
    relevant = set(int(i) for i in relevant)
    if not relevant:
        return 0.0
    hits = _hit_matrix(top_items, relevant)
    return float(hits.sum() / len(top_items))


def hit_rate_at_k(top_items: np.ndarray, relevant) -> float:
    relevant = set(int(i) for i in relevant)
    if not relevant:
        return 0.0
    return float(any(int(i) in relevant for i in top_items))


def ndcg_at_k(top_items: np.ndarray, relevant) -> float:
    """Binary-relevance NDCG with the ideal DCG truncated at |relevant|."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        return 0.0
    hits = _hit_matrix(top_items, relevant)
    discounts = 1.0 / np.log2(np.arange(2, len(top_items) + 2))
    dcg = float((hits * discounts).sum())
    ideal_hits = min(len(relevant), len(top_items))
    idcg = float(discounts[:ideal_hits].sum())
    return dcg / idcg


def average_precision_at_k(top_items: np.ndarray, relevant) -> float:
    relevant = set(int(i) for i in relevant)
    if not relevant:
        return 0.0
    hits = _hit_matrix(top_items, relevant)
    if hits.sum() == 0:
        return 0.0
    precisions = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float((precisions * hits).sum() / min(len(relevant), len(hits)))
