"""Negative sampling strategies.

The paper trains with either *uniform negative sampling* (MF) or
*in-batch negatives* (GCN backbones, Appendix Table V), and probes
robustness by letting the sampler draw false negatives at a controlled
rate ``rnoise`` (Sec. III-B, Figs. 3/8): ``rnoise`` is the ratio of the
sampling probability of a positive item to that of a negative item.

Samplers read training data through the
:class:`~repro.data.source.InteractionSource` protocol, so the same code
drives an in-memory :class:`~repro.data.dataset.InteractionDataset` and
an out-of-core :class:`~repro.data.source.ShardedInteractionSource`.
Every per-batch operation touches only the batch's users — collision
detection runs against batch-gathered sorted positives
(:func:`~repro.data.source.batch_contains`) instead of a dense
``num_users × num_items`` mask — so draws are bit-reproducible across
both backends (``tests/test_outofcore.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.source import as_source, batch_contains
from repro.obs.metrics import get_registry
from repro.tensor.random import ensure_rng

__all__ = ["TrainingBatch", "UniformNegativeSampler", "InBatchSampler",
           "PopularityNegativeSampler"]


@dataclass
class TrainingBatch:
    """One mini-batch of (user, positive, negatives) triples.

    ``negatives`` has shape ``(batch, n_negatives)``; for in-batch
    sampling each row simply reuses the other positives of the batch.
    """

    users: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


class _PairShuffler:
    """Shared epoch logic: shuffle training pairs and cut mini-batches."""

    def __init__(self, dataset, batch_size: int, rng=None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.source = as_source(dataset)
        self.batch_size = batch_size
        self._rng = ensure_rng(rng)

    def _epoch_order(self) -> np.ndarray:
        return self._rng.permutation(self.source.num_train)


class UniformNegativeSampler(_PairShuffler):
    """Uniform sampling of ``n_negatives`` items per positive pair.

    Parameters
    ----------
    n_negatives:
        Number of negatives per (user, positive) pair; the paper sweeps
        {32 ... 2048} in Fig. 9.
    rnoise:
        False-negative intensity (Fig. 3/8).  A sampled negative slot is
        drawn from the user's *positive* set with probability
        ``rnoise * |S+| / (rnoise * |S+| + |S-|)`` — i.e. each positive
        item is ``rnoise`` times as likely to be drawn as each true
        negative item, exactly the paper's definition.
    exclude_positives:
        If True (and ``rnoise == 0``) resample collisions with the
        user's training positives, giving clean negatives.
    """

    def __init__(self, dataset, n_negatives: int = 64,
                 batch_size: int = 1024, rnoise: float = 0.0,
                 exclude_positives: bool = True, rng=None):
        super().__init__(dataset, batch_size, rng)
        if n_negatives <= 0:
            raise ValueError(f"n_negatives must be positive, got {n_negatives}")
        if not 0.0 <= rnoise < float("inf"):  # NaN included
            raise ValueError(f"rnoise must be finite and non-negative, "
                             f"got {rnoise}")
        self.n_negatives = n_negatives
        self.rnoise = rnoise
        self.exclude_positives = exclude_positives
        # Redraw telemetry: instruments are fetched once at construction
        # and bumped once per batch, so the draw loop itself stays clean.
        registry = get_registry()
        self._ctr_draws = registry.counter(
            "train.sampler.draws", "negative slots drawn")
        self._ctr_collisions = registry.counter(
            "train.sampler.collisions",
            "drawn negatives that collided with a positive")
        self._ctr_redraws = registry.counter(
            "train.sampler.redraws",
            "colliding slots replaced via the masked redraw")

    def epoch(self):
        """Yield :class:`TrainingBatch` objects covering one epoch."""
        order = self._epoch_order()
        for lo in range(0, len(order), self.batch_size):
            chunk = self.source.pairs(order[lo:lo + self.batch_size])
            users, positives = chunk[:, 0], chunk[:, 1]
            negatives = self._draw_negatives(users)
            yield TrainingBatch(users, positives, negatives)

    def _draw_negatives(self, users: np.ndarray) -> np.ndarray:
        n_items = self.source.num_items
        negatives = self._rng.integers(
            0, n_items, size=(len(users), self.n_negatives))
        self._ctr_draws.inc(negatives.size)
        if self.rnoise > 0:
            # Exact rnoise semantics: every slot is a true negative unless
            # explicitly corrupted, so the positive/negative sampling-
            # probability ratio is exactly rnoise.
            self._resample_collisions(users, negatives)
            self._mix_in_false_negatives(users, negatives)
        elif self.exclude_positives:
            self._resample_collisions(users, negatives)
        return negatives

    def _mix_in_false_negatives(self, users: np.ndarray,
                                negatives: np.ndarray) -> None:
        """Overwrite slots with positives at the rnoise-implied rate.

        Vectorized: per-row slot-corruption probabilities follow the
        paper's definition, and the replacement items are drawn from the
        batch's padded positive rows in one gather.
        """
        padded, degrees = self.source.batch_padded_positives(users)
        deg = degrees.astype(np.float64)                            # (B,)
        n_neg = self.source.num_items - deg
        with np.errstate(divide="ignore", invalid="ignore"):
            p_pos = np.where(deg > 0,
                             self.rnoise * deg / (self.rnoise * deg + n_neg),
                             0.0)
        corrupt = self._rng.random(negatives.shape) < p_pos[:, None]
        if not corrupt.any():
            return
        slot = (self._rng.random(negatives.shape)
                * np.maximum(deg, 1.0)[:, None]).astype(np.int64)
        batch_rows = np.arange(len(users), dtype=np.int64)
        replacements = padded[batch_rows[:, None], slot]
        negatives[corrupt] = replacements[corrupt]

    def _resample_collisions(self, users: np.ndarray,
                             negatives: np.ndarray) -> None:
        """Replace colliding negatives with one exact masked redraw.

        Colliding slots are redrawn **once**, uniformly over the user's
        non-positive items, via the rank mapping: draw
        ``r ~ U[0, num_items - deg_u)`` and return the ``r``-th
        non-positive item.  With ascending positives ``p_0 < p_1 < ...``
        the ``j``-th positive occupies complement-shifted value
        ``p_j - j``, so the answer is ``r + |{j : p_j - j <= r}|`` —
        fully vectorized, no rejection rounds, and the output is
        *exactly* uniform over the complement.  Collision detection and
        the rank mapping both run on batch-gathered sorted positives, so
        memory follows the batch, not the catalogue; pad sentinels
        exceed ``num_items + width`` and therefore never count.

        Users whose positives cover the whole catalogue have an empty
        complement; their slots are left untouched (a collision is
        unavoidable).
        """
        padded, degrees = self.source.batch_sorted_positives(users)
        collisions = batch_contains(padded, negatives)
        if not collisions.any():
            return
        rows, cols = np.nonzero(collisions)
        self._ctr_collisions.inc(len(rows))
        deg = degrees[rows]
        n_free = self.source.num_items - deg
        ok = n_free > 0
        self._ctr_redraws.inc(int(ok.sum()))
        r = self._rng.integers(0, np.maximum(n_free, 1))
        # rank -> item id: count positives at or below the landing spot
        shifted = padded[rows] - np.arange(padded.shape[1])[None, :]
        redrawn = r + (shifted <= r[:, None]).sum(axis=1)
        negatives[rows[ok], cols[ok]] = redrawn[ok]


class PopularityNegativeSampler(UniformNegativeSampler):
    """Popularity-weighted negatives, ``P(j) ∝ pop(j)^beta``.

    Kept as an ablation: prior work attributed SL's fairness to
    popularity-based sampling; the paper shows uniform sampling already
    yields it, so benches compare the two.
    """

    def __init__(self, dataset, n_negatives: int = 64,
                 batch_size: int = 1024, beta: float = 0.75, rng=None):
        super().__init__(dataset, n_negatives=n_negatives,
                         batch_size=batch_size, rnoise=0.0,
                         exclude_positives=False, rng=rng)
        weights = np.maximum(self.source.item_popularity, 1) ** beta
        self._probs = weights / weights.sum()
        self.beta = beta

    def _draw_negatives(self, users: np.ndarray) -> np.ndarray:
        return self._rng.choice(
            self.source.num_items, size=(len(users), self.n_negatives),
            p=self._probs)


class InBatchSampler(_PairShuffler):
    """In-batch negatives: other positives in the batch serve as negatives.

    Mirrors the paper's Algorithm 2 (used for NGCF/LightGCN).  Each batch
    row ``b`` uses the other ``B - 1`` positive items as its negative set.
    """

    def epoch(self):
        order = self._epoch_order()
        for lo in range(0, len(order), self.batch_size):
            chunk = self.source.pairs(order[lo:lo + self.batch_size])
            if len(chunk) < 2:
                continue  # a single pair has no in-batch negatives
            users, positives = chunk[:, 0], chunk[:, 1]
            negatives = self._in_batch_negatives(positives)
            yield TrainingBatch(users, positives, negatives)

    @staticmethod
    def _in_batch_negatives(positives: np.ndarray) -> np.ndarray:
        batch = len(positives)
        tiled = np.broadcast_to(positives, (batch, batch))
        mask = ~np.eye(batch, dtype=bool)
        return tiled[mask].reshape(batch, batch - 1)
