"""Batched full-ranking evaluation with train-item masking.

This is the measurement harness behind every number reported in the
paper's tables: Recall@20 / NDCG@20 (Table II-IV) plus the alternative
cutoffs of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.eval import metrics as M
from repro.eval.masking import mask_seen_items, seen_items_csr
from repro.models.base import Recommender

__all__ = ["EvalResult", "Evaluator", "evaluate_model", "evaluate_scores"]


@dataclass
class EvalResult:
    """Aggregated metrics plus per-user values for group analyses."""

    metrics: dict[str, float]
    per_user: dict[str, np.ndarray] = field(default_factory=dict)
    evaluated_users: np.ndarray | None = None

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.metrics.items()))
        return f"EvalResult({inner})"


class Evaluator:
    """Full-ranking evaluator.

    Parameters
    ----------
    dataset:
        Provides the train mask and the held-out test positives.
    ks:
        Cutoffs to report; the paper's headline is K=20, Fig. 7 adds
        {5, 10, 15}.
    metric_names:
        Subset of {"recall", "ndcg", "precision", "hit", "map"}.
    batch_users:
        Number of users scored per dense block (memory control).

    Each chunk of users is one dense score block, one two-level top-K
    selection (:func:`~repro.eval.metrics.rank_items`) and array-level
    metric computation over the whole chunk; the per-user functions of
    :mod:`repro.eval.metrics` are the oracle it is pinned to, bit for
    bit (``tests/test_eval_chunked.py``).
    """

    _METRICS = ("recall", "ndcg", "precision", "hit", "map")

    def __init__(self, dataset: InteractionDataset, ks=(20,),
                 metric_names=("recall", "ndcg"), batch_users: int = 256):
        unknown = set(metric_names) - set(self._METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        self.dataset = dataset
        self.ks = tuple(sorted(set(int(k) for k in ks)))
        if not self.ks:
            raise ValueError("ks must name at least one cutoff, got none")
        if batch_users <= 0:
            raise ValueError(f"batch_users must be positive, "
                             f"got {batch_users}")
        self.metric_names = tuple(metric_names)
        self.batch_users = batch_users
        self._test_users = np.array(
            [u for u in range(dataset.num_users)
             if len(dataset.test_items_by_user[u]) > 0], dtype=np.int64)
        # Flattened train- and test-interaction layouts over the test
        # users, so per-chunk seen masking and relevance lookup are array
        # slices instead of per-user Python loops on every evaluate() pass.
        self._train_indptr, self._train_cols = seen_items_csr(
            [dataset.train_items_by_user[u] for u in self._test_users])
        self._test_indptr, self._test_cols = seen_items_csr(
            [dataset.test_items_by_user[u] for u in self._test_users])
        #: held-out positive count per test user (vectorized metrics)
        self._num_relevant = np.diff(self._test_indptr)
        self._test_pos = np.full(dataset.num_users, -1, dtype=np.int64)
        self._test_pos[self._test_users] = np.arange(len(self._test_users))
        # Ranked-list width is fixed: hoist the shared discount/IDCG
        # tables out of the per-chunk loop (IDCG summed exactly like
        # the per-user oracle — np.sum's pairwise order, not cumsum's).
        width = min(max(self.ks), dataset.num_items)
        self._discounts = 1.0 / np.log2(np.arange(2, width + 2))
        self._idcg_table = np.array([self._discounts[:n].sum()
                                     for n in range(1, width + 1)])

    # ------------------------------------------------------------------
    def evaluate(self, model: Recommender) -> EvalResult:
        """Evaluate a model over all users with held-out positives."""
        per_user = {f"{m}@{k}": np.zeros(len(self._test_users))
                    for m in self.metric_names for k in self.ks}
        max_k = max(self.ks)
        for lo in range(0, len(self._test_users), self.batch_users):
            users = self._test_users[lo:lo + self.batch_users]
            scores = model.predict_scores(user_ids=users)
            self._mask_train_items(scores, users)
            self._chunk_metrics(per_user, lo, M.rank_items(scores, max_k))
        aggregated = {key: float(vals.mean()) for key, vals in per_user.items()}
        return EvalResult(aggregated, per_user=per_user,
                          evaluated_users=self._test_users.copy())

    def _chunk_metrics(self, per_user: dict, lo: int,
                       top: np.ndarray) -> None:
        """Vectorized metrics for the chunk of test users from ``lo``.

        Computes the same per-user formulas as :mod:`repro.eval.metrics`
        but over ``(chunk, K)`` arrays: the hit matrix comes from one
        fancy-indexed lookup into a per-chunk relevance mask, filled by
        one scatter from the test-item CSR, instead of ``top_k`` Python
        set probes per user.
        """
        n_rows, width = top.shape
        n_items = self.dataset.num_items
        ptr = self._test_indptr[lo:lo + n_rows + 1]
        relevant_mask = np.zeros((n_rows, n_items), dtype=bool)
        relevant_mask[np.repeat(np.arange(n_rows), np.diff(ptr)),
                      self._test_cols[ptr[0]:ptr[-1]]] = True
        hits = np.take_along_axis(relevant_mask, top, axis=1).astype(np.float64)
        n_rel = self._num_relevant[lo:lo + n_rows].astype(np.float64)
        discounts = self._discounts
        idcg_table = self._idcg_table
        assert width == len(discounts), "ranked-list width changed?"
        for k in self.ks:
            kk = min(k, n_items)
            hits_k = hits[:, :kk]
            hit_counts = hits_k.sum(axis=1)
            for m in self.metric_names:
                if m == "recall":
                    values = hit_counts / n_rel
                elif m == "precision":
                    values = hit_counts / kk
                elif m == "hit":
                    values = (hit_counts > 0).astype(np.float64)
                elif m == "ndcg":
                    dcg = (hits_k * discounts[:kk]).sum(axis=1)
                    ideal = np.minimum(n_rel, kk).astype(np.int64)
                    values = dcg / idcg_table[ideal - 1]
                else:  # map
                    precisions = (np.cumsum(hits_k, axis=1)
                                  / np.arange(1, kk + 1))
                    values = ((precisions * hits_k).sum(axis=1)
                              / np.minimum(n_rel, kk))
                    values[hit_counts == 0] = 0.0
                per_user[f"{m}@{k}"][lo:lo + n_rows] = values

    def _mask_train_items(self, scores: np.ndarray, users: np.ndarray) -> None:
        """Mask already-seen items with one vectorized scatter per chunk.

        Any set of test users (contiguous or not) hits the precomputed
        flattened layout via :func:`repro.eval.masking.mask_seen_items`
        — the same scatter the serving indexes use; users outside the
        test set fall back to the per-user scatter.
        """
        if not len(users):
            return
        pos = self._test_pos[np.asarray(users, dtype=np.int64)]
        if np.all(pos >= 0):
            mask_seen_items(scores, self._train_indptr, self._train_cols, pos)
            return
        for row, u in enumerate(users):
            items = self.dataset.train_items_by_user[u]
            if len(items):
                scores[row, items] = -np.inf


def evaluate_model(model: Recommender, dataset: InteractionDataset,
                   ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(dataset, ks=ks, metric_names=metric_names).evaluate(model)


def evaluate_scores(scores: np.ndarray, dataset: InteractionDataset,
                    ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """Evaluate a precomputed dense score matrix (for tests/baselines)."""

    class _FixedScores(Recommender):
        def __init__(self):
            super().__init__(dataset.num_users, dataset.num_items, dim=1)

        def propagate(self):  # pragma: no cover - not used
            raise NotImplementedError

        def predict_scores(self, user_ids=None):
            if user_ids is None:
                return scores.copy()
            return scores[np.asarray(user_ids, dtype=np.int64)].copy()

    return Evaluator(dataset, ks=ks, metric_names=metric_names).evaluate(
        _FixedScores())
