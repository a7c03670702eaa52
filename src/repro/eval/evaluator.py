"""Batched full-ranking evaluation with train-item masking.

This is the measurement harness behind every number reported in the
paper's tables: Recall@20 / NDCG@20 (Table II-IV) plus the alternative
cutoffs of Fig. 7, and the ranked lists behind the popularity-group
NDCG of Figs. 4a and 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.source import InteractionSource
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
    """Full-ranking evaluator: the one score → mask → rank loop.

    Parameters
    ----------
    dataset:
        Any :class:`~repro.data.source.InteractionSource` — an in-memory
        :class:`~repro.data.dataset.InteractionDataset` or an out-of-core
        ``ShardedInteractionSource`` — whose train CSR is masked and
        whose ``test_csr()`` holds the held-out positives.
    ks:
        Cutoffs to report; the paper's headline is K=20, Fig. 7 adds
        {5, 10, 15}.
    metric_names:
        Subset of {"recall", "ndcg", "precision", "hit", "map"}.
    batch_users:
        Score rows in flight at once, summed over the workers (memory
        control): each of ``w = min(parallel.workers(), batch_users)``
        workers scores chunks of ``batch_users // w`` users.

    Each chunk of users is one dense score block, one two-level top-K
    selection (:func:`~repro.eval.metrics.rank_items`) and array-level
    metrics, with hits found by one ``searchsorted`` into the sorted
    held-out keys; the per-user functions of :mod:`repro.eval.metrics`
    are its bit-for-bit oracle (``tests/test_eval_chunked.py``).  The
    model's tables are built once per call, on the calling thread, and
    the chunks fan out over the cores (:meth:`_rank_chunks`).  Group
    NDCG and exposure counts rank through :meth:`top_items`.
    """

    _METRICS = ("recall", "ndcg", "precision", "hit", "map")

    def __init__(self, dataset: InteractionSource, ks=(20,),
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
        test_indptr, test_items = dataset.test_csr()
        counts = np.diff(test_indptr)
        self._test_users = np.flatnonzero(counts)
        if not len(self._test_users):
            # Every metric would be the mean of an empty slice: NaN, on
            # which early stopping would silently act.
            raise ValueError(f"dataset {dataset.name!r} has no test users "
                             f"to evaluate: its test split is empty")
        # One sorted key per distinct held-out (test-user row, item); a
        # duplicated test pair is one positive, as in the oracle.  (A
        # sort and a neighbour test: np.unique costs 20x more here.)
        rows = np.repeat(np.arange(len(self._test_users)),
                         counts[self._test_users])
        keys = np.sort(rows * dataset.num_items + test_items)
        self._keys = keys[np.append(True, keys[1:] != keys[:-1])]
        self._num_relevant = np.bincount(self._keys // dataset.num_items,
                                         minlength=len(self._test_users))
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

    def top_items(self, model: Recommender, k: int,
                  users=None) -> np.ndarray:
        """Masked top-``k`` lists of ``users`` (default: the test users,
        :meth:`ndcg_gains`' rows), ranked as :meth:`evaluate` ranks them:
        ``(len(users), min(k, num_items))`` item ids."""
        users = (self._test_users if users is None
                 else np.asarray(users, dtype=np.int64))
        top = np.empty((len(users), min(k, self.dataset.num_items)),
                       dtype=np.int64)

        def keep(lo: int, rows: np.ndarray) -> None:
            top[lo:lo + len(rows)] = rows

        with parallel.scope("evaluator"):
            self._rank_chunks(model.scoring_tables().scores, users, k, keep)
        return top

    def ndcg_gains(self, top: np.ndarray) -> np.ndarray:
        """Per-rank NDCG gains of the test users' lists ``top`` (from
        :meth:`top_items`, at most ``max(ks)`` wide): ``(1 / log2(r + 2))
        / IDCG_u`` where item ``top[u, r]`` is held out for ``u``, else 0.
        """
        width = top.shape[1]
        idcg = self._idcg_table[np.minimum(self._num_relevant, width) - 1]
        return np.where(self._hits(0, top),
                        self._discounts[:width] / idcg[:, None], 0.0)

    def _rank_chunks(self, score_rows, users: np.ndarray, k: int,
                     consume) -> None:
        """Score, mask and rank ``users`` chunk by chunk.

        ``score_rows(chunk)`` returns a fresh ``(len(chunk), num_items)``
        block; ``consume(lo, top)`` gets the masked top-``k`` lists of
        ``users[lo:lo + len(top)]`` and writes only those rows.  The
        chunks, ``batch_users // workers`` users each, fan out in one
        contiguous run per core of the caller's
        :func:`~repro.tensor.parallel.scope`, so at most ``batch_users``
        score rows are alive at once and the split cannot show.
        """
        size = self.batch_users // min(parallel.workers(), self.batch_users)
        starts = range(0, len(users), size)
        seen_indptr, seen_items = self.dataset.train_csr()

        def chunks(first: int, stop: int) -> None:
            for lo in starts[first:stop]:
                chunk = users[lo:lo + size]
                scores = score_rows(chunk)
                mask_seen_items(scores, seen_indptr, seen_items, chunk)
                consume(lo, M.rank_items(scores, k))

        parallel.fan_out(len(starts), chunks)

    def _evaluate(self, score_rows) -> EvalResult:
        """Rank the test users and measure them chunk by chunk."""
        per_user = {f"{m}@{k}": np.zeros(len(self._test_users))
                    for m in self.metric_names for k in self.ks}
        self._rank_chunks(
            score_rows, self._test_users, max(self.ks),
            lambda lo, top: self._chunk_metrics(per_user, lo, top))
        aggregated = {key: float(vals.mean()) for key, vals in per_user.items()}
        return EvalResult(aggregated, per_user=per_user,
                          evaluated_users=self._test_users.copy())

    def _hits(self, lo: int, top: np.ndarray) -> np.ndarray:
        """Whether ``top[r, j]`` is held out for test user ``lo + r``: one
        ``searchsorted`` of the lists' keys into the sorted keys."""
        rows = np.arange(lo, lo + len(top))[:, None]
        probes = rows * self.dataset.num_items + top
        found = np.searchsorted(self._keys, probes)
        return self._keys[np.minimum(found, len(self._keys) - 1)] == probes

    def _chunk_metrics(self, per_user: dict, lo: int,
                       top: np.ndarray) -> None:
        """Vectorized metrics for the chunk of test users from ``lo``.

        Computes the same per-user formulas as :mod:`repro.eval.metrics`
        but over ``(chunk, K)`` arrays: the hit matrix comes from one key
        lookup (:meth:`_hits`) instead of ``top_k`` Python set probes per
        user.
        """
        n_rows, width = top.shape
        n_items = self.dataset.num_items
        hits = self._hits(lo, top).astype(np.float64)
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


def evaluate_model(model: Recommender, dataset: InteractionSource,
                   ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(dataset, ks=ks, metric_names=metric_names).evaluate(model)


def evaluate_scores(scores: np.ndarray, dataset: InteractionSource,
                    ks=(20,), metric_names=("recall", "ndcg")) -> EvalResult:
    """Evaluate a precomputed dense score matrix (for tests/baselines)."""
    return Evaluator(dataset, ks=ks,
                     metric_names=metric_names).evaluate_scores(scores)
