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
from repro.eval.masking import mask_seen_items
from repro.models.base import Recommender
from repro.tensor import parallel

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
        Score rows in flight at once, summed over the workers (memory
        control): each of ``w = min(os.cpu_count(), batch_users)``
        workers scores chunks of ``batch_users // w`` users.

    Each chunk of users is one dense score block, one two-level top-K
    selection (:func:`~repro.eval.metrics.rank_items`) and array-level
    metric computation over the whole chunk; the per-user functions of
    :mod:`repro.eval.metrics` are the oracle it is pinned to, bit for
    bit (``tests/test_eval_chunked.py``).  The model's tables are built
    once per :meth:`evaluate`, on the calling thread; the chunks fan out
    in contiguous runs, one per core, through
    :func:`repro.tensor.parallel.fan_out`, in a scope whose threads are
    joined before the call returns.  A chunk's rows depend only on its
    own users, so any split gives the same bits.
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
        # Users without held-out items have empty rows, so the global
        # test CSR's item column is already the test users' items in
        # order: only the row pointers need narrowing to those users.
        test_indptr, self._test_cols = dataset.test_csr()
        self._test_users = np.flatnonzero(np.diff(test_indptr))
        if not len(self._test_users):
            # Every metric would be the mean of an empty slice: NaN, on
            # which early stopping would silently act.
            raise ValueError(f"dataset {dataset.name!r} has no test users "
                             f"to evaluate: its test split is empty")
        self._test_indptr = test_indptr[np.append(self._test_users,
                                                  dataset.num_users)]
        #: held-out positive count per test user (vectorized metrics)
        self._num_relevant = np.diff(self._test_indptr)
        # Ranked-list width is fixed: hoist the shared discount/IDCG
        # tables out of the per-chunk loop (IDCG summed exactly like
        # the per-user oracle — np.sum's pairwise order, not cumsum's).
        width = min(max(self.ks), dataset.num_items)
        self._discounts = 1.0 / np.log2(np.arange(2, width + 2))
        self._idcg_table = np.array([self._discounts[:n].sum()
                                     for n in range(1, width + 1)])

    # ------------------------------------------------------------------
    def evaluate(self, model: Recommender) -> EvalResult:
        """Evaluate a model over all users with held-out positives.

        The model propagates once, here on the calling thread
        (:meth:`~repro.models.base.Recommender.scoring_tables`); the
        workers only read the tables it returns.
        """
        with parallel.scope("evaluator"):
            return self._evaluate(model.scoring_tables().scores)

    def evaluate_scores(self, scores: np.ndarray) -> EvalResult:
        """Evaluate a precomputed dense ``(num_users, num_items)`` matrix.

        Indexing by the user array copies the rows, so masking never
        writes to ``scores``.
        """
        with parallel.scope("evaluator"):
            return self._evaluate(lambda users: scores[users])

    def _evaluate(self, score_rows) -> EvalResult:
        """Score, mask, rank and measure the test users chunk by chunk.

        ``score_rows(users)`` returns a fresh ``(len(users), num_items)``
        block.  The chunks, each ``batch_users // workers`` users, fan
        out in one contiguous run per core of the caller's
        :func:`~repro.tensor.parallel.scope`, so at most ``batch_users``
        score rows are alive at once; every chunk writes only its own
        rows of ``per_user``, so the result cannot depend on the split.
        """
        n_users = len(self._test_users)
        per_user = {f"{m}@{k}": np.zeros(n_users)
                    for m in self.metric_names for k in self.ks}
        max_k = max(self.ks)
        size = self.batch_users // min(parallel.workers(), self.batch_users)
        starts = range(0, n_users, size)

        def chunks(first: int, stop: int) -> None:
            for lo in starts[first:stop]:
                users = self._test_users[lo:lo + size]
                scores = score_rows(users)
                self._mask_train_items(scores, users)
                self._chunk_metrics(per_user, lo,
                                    M.rank_items(scores, max_k))

        parallel.fan_out(len(starts), chunks)
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

        Rows index the dataset's train CSR by global user id, through
        :func:`repro.eval.masking.mask_seen_items` — the same scatter the
        serving indexes use.
        """
        indptr, items = self.dataset.train_csr()
        mask_seen_items(scores, indptr, items, users)


def evaluate_model(model: Recommender, dataset: InteractionDataset,
                   ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(dataset, ks=ks, metric_names=metric_names).evaluate(model)


def evaluate_scores(scores: np.ndarray, dataset: InteractionDataset,
                    ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """Evaluate a precomputed dense score matrix (for tests/baselines)."""
    return Evaluator(dataset, ks=ks,
                     metric_names=metric_names).evaluate_scores(scores)
