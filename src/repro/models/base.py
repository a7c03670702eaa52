"""Recommender interface shared by every backbone.

A backbone produces *final* user/item embedding tables (possibly via
graph propagation); scoring and the train/test conventions follow the
paper's Appendix (Table V): training scores are cosine similarities of
L2-normalized embeddings, test scores are inner products (cosine for
MF).  Losses are decoupled from backbones — any loss from
:mod:`repro.losses` can drive any backbone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.data.sampling import TrainingBatch
from repro.nn.module import Module
from repro.scoring import (euclidean_scores, scoring_ready_items,
                           scoring_ready_users)
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F

__all__ = ["Recommender", "ScoringTables"]


class ScoringTables(NamedTuple):
    """Final user/item tables in test-scoring form.

    Built by :meth:`Recommender.scoring_tables`: rows already normalised
    for cosine scoring, and ``item_sq`` (``‖i‖²``) set for euclidean
    scoring only.  Scoring never writes to the tables, so any number of
    threads may score rows from one instance at once.  Tables that were
    not normalised may share memory with the model's parameters: they
    are valid until the next optimizer step.
    """

    users: np.ndarray
    items: np.ndarray
    item_sq: np.ndarray | None

    def scores(self, user_ids=None) -> np.ndarray:
        """``(len(user_ids), num_items)`` test scores; all users if None."""
        users = self.users
        if user_ids is not None:
            users = users[np.asarray(user_ids, dtype=np.int64)]
        scores = users @ self.items.T
        if self.item_sq is not None:
            return euclidean_scores(scores, users, self.item_sq, out=scores)
        return scores


class Recommender(Module):
    """Base class: embedding propagation + batch/full scoring.

    Parameters
    ----------
    num_users, num_items:
        Entity counts of the dataset.
    dim:
        Embedding dimensionality (64 in the paper's main experiments).
    train_scoring, test_scoring:
        ``"cosine"`` or ``"inner"``; defaults follow Table V
        (train: cosine everywhere; test: model-specific).
    """

    def __init__(self, num_users: int, num_items: int, dim: int = 64,
                 train_scoring: str = "cosine", test_scoring: str = "inner"):
        super().__init__()
        for label, value in (("train_scoring", train_scoring),
                             ("test_scoring", test_scoring)):
            if value not in ("cosine", "inner", "euclidean"):
                raise ValueError(f"{label} must be cosine/inner/euclidean, "
                                 f"got {value!r}")
        self.num_users = num_users
        self.num_items = num_items
        self.dim = dim
        self.train_scoring = train_scoring
        self.test_scoring = test_scoring

    # ------------------------------------------------------------------
    # To be provided by backbones
    # ------------------------------------------------------------------
    def propagate(self) -> tuple[Tensor, Tensor]:
        """Return the final (user_table, item_table) embedding tensors."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def batch_scores(self, batch: TrainingBatch) -> tuple[Tensor, Tensor]:
        """Score one training batch.

        Returns ``(pos_scores, neg_scores)`` of shapes ``(B,)`` and
        ``(B, m)`` on the training scoring function.  The trainer's entry
        point in every ``grad_mode``; the work is
        :meth:`sampled_batch_scores` (kept as its own call so both names
        can be timed separately).
        """
        return self.sampled_batch_scores(batch)

    def sampled_batch_scores(self, batch: TrainingBatch
                             ) -> tuple[Tensor, Tensor]:
        """Score one training batch touching only the sampled rows.

        The work is ``O(batch * n_negatives * dim)``, never
        ``O(batch * num_items * dim)``: one
        :func:`~repro.tensor.functional.fused_sampled_scores` node
        gathers the user/positive/negative rows and scores them per
        pair, never against the full catalogue.  Cosine scoring
        normalizes the gathered rows — normalize-then-gather and
        gather-then-normalize are the same row operation.  The
        full-catalogue form (normalise the tables, one ``(B, num_items)``
        matmul, gather) is the test oracle
        ``tests/oracles.py::catalogue_batch_scores``.

        When :meth:`propagate` returns the raw embedding tables (MF,
        CML, ...), the backward pass therefore yields
        :class:`~repro.tensor.sparse.RowSparseGrad` parameter gradients;
        the row-sparse optimizers update only those rows and the dense
        ones densify them.  Graph backbones whose tables are propagation
        outputs still work — their gradients densify at the propagation
        node (see ``Tensor.backward``).
        """
        users_t, items_t = self.propagate()
        scores = F.fused_sampled_scores(
            users_t, items_t, batch.users, batch.positives,
            batch.negatives, scoring=self.train_scoring)
        return scores[:, 0], scores[:, 1:]

    def auxiliary_loss(self, batch: TrainingBatch) -> Tensor | None:
        """Optional model-specific loss (SSL branches); default none."""
        return None

    def custom_loss(self, batch: TrainingBatch) -> Tensor | None:
        """Fully custom objective replacing the pluggable loss (ENMF)."""
        return None

    def post_step(self) -> None:
        """Hook after each optimizer step (e.g. CML's norm projection)."""

    def on_epoch_start(self, rng) -> None:
        """Hook before each epoch (e.g. SGL resamples its graph views)."""

    # ------------------------------------------------------------------
    # Full-ranking prediction (evaluation)
    # ------------------------------------------------------------------
    def scoring_tables(self) -> ScoringTables:
        """The final tables, ready for test scoring.

        Cosine scoring normalises the rows and euclidean scoring computes
        ``‖i‖²`` here, through serving's transforms (:mod:`repro.scoring`),
        so scoring user rows afterwards is one slice and one GEMM
        (:meth:`ScoringTables.scores`) that touches no model state.
        """
        users, items = self._final_tables()
        users = scoring_ready_users(users, self.test_scoring)
        items = scoring_ready_items(items, self.test_scoring)
        item_sq = ((items ** 2).sum(axis=1)
                   if self.test_scoring == "euclidean" else None)
        return ScoringTables(users, items, item_sq)

    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """C-ordered float64 copies of the final tables evaluation scores
        (an exact cast of a float32 model's), for analysis, t-SNE and
        snapshots."""
        return tuple(np.array(table, dtype=np.float64, order="C")
                     for table in self._final_tables())

    def _final_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """One :meth:`propagate` in eval mode (no dropout or SSL noise)
        under ``no_grad``; may share memory with the parameters."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                users_t, items_t = self.propagate()
        finally:
            if was_training:
                self.train()
        return users_t.data, items_t.data
