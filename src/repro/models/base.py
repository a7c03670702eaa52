"""Recommender interface shared by every backbone.

A backbone produces *final* user/item embedding tables (possibly via
graph propagation); scoring and the train/test conventions follow the
paper's Appendix (Table V): training scores are cosine similarities of
L2-normalized embeddings, test scores are inner products (cosine for
MF).  Losses are decoupled from backbones — any loss from
:mod:`repro.losses` can drive any backbone.
"""

from __future__ import annotations

import numpy as np

from repro.data.sampling import TrainingBatch
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F

__all__ = ["Recommender"]


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
    def predict_scores(self, user_ids=None) -> np.ndarray:
        """Dense score matrix for evaluation, using test scoring.

        Parameters
        ----------
        user_ids:
            Optional subset of users; defaults to all users.
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                users_t, items_t = self.propagate()
            users = users_t.data
            items = items_t.data
        finally:
            if was_training:
                self.train()
        if user_ids is not None:
            users = users[np.asarray(user_ids, dtype=np.int64)]
        if self.test_scoring == "cosine":
            users = users / (np.linalg.norm(users, axis=1, keepdims=True) + 1e-12)
            items = items / (np.linalg.norm(items, axis=1, keepdims=True) + 1e-12)
        if self.test_scoring == "euclidean":
            # negative squared distance ranks identically to -distance
            u2 = (users ** 2).sum(axis=1, keepdims=True)
            i2 = (items ** 2).sum(axis=1)
            return -(u2 + i2 - 2.0 * users @ items.T)
        return users @ items.T

    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """Final numpy embedding tables (no grad), for analysis/t-SNE."""
        with no_grad():
            users_t, items_t = self.propagate()
        return users_t.data.copy(), items_t.data.copy()
