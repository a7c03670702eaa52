"""Seen-item masking shared by evaluation and serving.

Both the offline :class:`~repro.eval.evaluator.Evaluator` and the online
top-K indexes in :mod:`repro.serve` implement the same protocol before
ranking: items a user has already interacted with in the training split
are removed from the candidate set by setting their scores to ``-inf``
(LightGCN's full-ranking convention, Sec. IV of the paper).  This module
is the single implementation of that scatter so the two subsystems can
never drift apart.

The interaction sets are passed in CSR layout — ``indices[indptr[p] :
indptr[p + 1]]`` are the seen items of the entity at *position* ``p`` —
which is exactly how both an interaction source's train CSR and the
serving snapshot's persisted ``seen_*`` arrays are stored.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mask_seen_items", "seen_items_csr"]


def mask_seen_items(scores: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, positions: np.ndarray) -> None:
    """Set ``scores[row, seen(positions[row])] = -inf``, in place.

    Parameters
    ----------
    scores:
        Dense ``(len(positions), n_items)`` score block, mutated in place.
    indptr, indices:
        CSR layout of seen items per position (``indptr`` has one more
        entry than there are positions in the layout).
    positions:
        Row ``r`` of ``scores`` masks the seen set of ``positions[r]``.
        Any integer array — contiguous chunks take a slice fast path,
        arbitrary gathers are still fully vectorized.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if not len(positions):
        return
    counts = indptr[positions + 1] - indptr[positions]
    total = int(counts.sum())
    if total == 0:
        return
    rows = np.repeat(np.arange(len(positions)), counts)
    if np.all(np.diff(positions) == 1):
        cols = indices[indptr[positions[0]]:indptr[positions[-1] + 1]]
    else:
        starts = np.repeat(indptr[positions], counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        cols = indices[starts + offsets]
    scores[rows, cols] = -np.inf


def seen_items_csr(items_by_user: list[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-user item lists into the ``(indptr, indices)`` layout.

    The inverse access pattern is
    ``indices[indptr[u]:indptr[u + 1]] == items_by_user[u]``.
    """
    counts = np.array([len(items) for items in items_by_user],
                      dtype=np.int64)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    if counts.sum() == 0:
        return indptr, np.empty(0, dtype=np.int64)
    indices = np.concatenate([np.asarray(items, dtype=np.int64)
                              for items in items_by_user if len(items)])
    return indptr, indices
