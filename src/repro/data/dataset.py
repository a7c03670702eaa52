"""Implicit-feedback interaction dataset.

Wraps the user-item interaction matrix ``R`` of the paper (Sec. II-A):
the train/test pairs, each grouped once into a read-only CSR by user,
popularity statistics, and sparse views used by the GCN backbones.  The
dataset is itself an :class:`~repro.data.source.InteractionSource`, so
samplers, the trainer and the exporters read it directly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.data.source import InteractionSource, _group_by_user

__all__ = ["InteractionDataset"]


class InteractionDataset(InteractionSource):
    """Container for one train/test split of implicit feedback.

    Parameters
    ----------
    num_users, num_items:
        Sizes of the user set ``U`` and item set ``I``.
    train_pairs:
        Integer array of shape ``(n_train, 2)`` with (user, item) rows.
    test_pairs:
        Integer array of shape ``(n_test, 2)``; test items are the
        held-out positives used for Recall@K / NDCG@K.
    name:
        Human-readable dataset name (e.g. ``"yelp2018-small"``).
    item_clusters:
        Optional ground-truth cluster id per item (synthetic datasets
        expose this so the t-SNE separation study of Figs. 10-11 can be
        scored without eyeballing plots).
    """

    def __init__(self, num_users: int, num_items: int, train_pairs, test_pairs,
                 name: str = "dataset", item_clusters=None):
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.train_pairs = self._validate_pairs(train_pairs, "train")
        self.test_pairs = self._validate_pairs(test_pairs, "test")
        self.name = name
        self.item_clusters = (None if item_clusters is None
                              else np.asarray(item_clusters, dtype=np.int64))
        self._indptr, self._csr_items = _group_by_user(self.train_pairs,
                                                       self.num_users)
        self._item_degrees = np.bincount(self.train_pairs[:, 1],
                                         minlength=self.num_items)

    def _validate_pairs(self, pairs, label: str) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"{label}_pairs must be (n, 2), got {pairs.shape}")
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.num_users:
            raise ValueError(f"{label}_pairs contains out-of-range user ids")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= self.num_items:
            raise ValueError(f"{label}_pairs contains out-of-range item ids")
        return pairs

    def pairs(self, indices: np.ndarray) -> np.ndarray:
        return self.train_pairs[indices]

    @cached_property
    def train_items_by_user(self) -> list[np.ndarray]:
        """Per-user read-only views of the train CSR, pair order."""
        return np.split(self._csr_items, self._indptr[1:-1])

    @cached_property
    def test_items_by_user(self) -> list[np.ndarray]:
        """Per-user read-only views of the test CSR, pair order."""
        indptr, items = self.test_csr()
        return np.split(items, indptr[1:-1])

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_train(self) -> int:
        return len(self.train_pairs)

    @property
    def num_test(self) -> int:
        return len(self.test_pairs)

    @property
    def density(self) -> float:
        """Fraction of the interaction matrix that is observed (Table I)."""
        return self.num_train / float(self.num_users * self.num_items)

    def popularity_groups(self, n_groups: int = 10) -> np.ndarray:
        """Assign each item to a popularity decile (Figs. 4a / 5).

        Group ids run from 0 (least popular) to ``n_groups - 1`` (most
        popular); groups are equal-count by popularity rank, matching the
        paper's ten interaction-frequency groups.
        """
        order = np.argsort(self.item_popularity, kind="stable")
        groups = np.empty(self.num_items, dtype=np.int64)
        splits = np.array_split(order, n_groups)
        for gid, idx in enumerate(splits):
            groups[idx] = gid
        return groups

    # ------------------------------------------------------------------
    # Sparse views
    # ------------------------------------------------------------------
    def train_matrix(self) -> sp.csr_matrix:
        """Binary user-item CSR matrix of the training interactions."""
        data = np.ones(len(self.train_pairs), dtype=np.float64)
        mat = sp.csr_matrix(
            (data, (self.train_pairs[:, 0], self.train_pairs[:, 1])),
            shape=(self.num_users, self.num_items))
        mat.data[:] = 1.0  # collapse accidental duplicates
        return mat

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_train_pairs(self, train_pairs, name: str | None = None
                         ) -> "InteractionDataset":
        """Clone with a different training set (noise-injection studies)."""
        return InteractionDataset(
            self.num_users, self.num_items, train_pairs, self.test_pairs,
            name=name or self.name, item_clusters=self.item_clusters)

    def __repr__(self) -> str:
        return (f"InteractionDataset(name={self.name!r}, users={self.num_users}, "
                f"items={self.num_items}, train={self.num_train}, "
                f"test={self.num_test}, density={self.density:.4%})")
