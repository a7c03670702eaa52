"""Test-scoring transforms shared by models, evaluation and serving.

Inner product, cosine (MF) or negated squared euclidean distance (CML),
per the paper's Appendix Table V.  ``ScoringTables.scores`` and every
serving path apply these functions, so online lists cannot drift from
the lists the metrics were computed on.  Imports numpy only, so
:mod:`repro.models` and :mod:`repro.serve` both import it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["normalize_rows", "scoring_ready_users", "scoring_ready_items",
           "euclidean_scores"]

#: Column slab :func:`euclidean_scores` forms ``‖u‖² + ‖i‖²`` in.
_EXPANSION_COLUMNS = 2048


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm: ``x / (‖x‖ + 1e-12)``, row by row."""
    return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)


def scoring_ready_users(vectors: np.ndarray, scoring: str) -> np.ndarray:
    """Rows in test-scoring form, row-normalised for cosine.

    Load-bearing for ranking parity: every table, index and shard starts
    from exactly this transform.  It is row-local, so gathering rows
    before or after it gives the same bits.  A float32 table (a model's)
    stays float32 and anything else becomes float64 (a snapshot's
    tables already are); without cosine the rows may share memory with
    the input.
    """
    vectors = np.asarray(vectors)
    if vectors.dtype != np.float32:
        vectors = vectors.astype(np.float64, copy=False)
    return normalize_rows(vectors) if scoring == "cosine" else vectors


#: Catalogue-side prep: the same row-local transform as the user side.
scoring_ready_items = scoring_ready_users


def euclidean_scores(dots: np.ndarray, vectors: np.ndarray,
                     item_sq: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Negated squared distances from a dot-product score block.

    ``-(‖u‖² + ‖i‖² - 2 u·i)`` with ``‖u‖²`` taken from ``vectors`` and
    ``item_sq`` the scored columns' ``‖i‖²``, both in the dtype of
    ``dots``.  ``out`` (which may be ``dots`` itself) receives the
    result; the doubling is exact, so doing it in place keeps every
    bit, and ``‖u‖² + ‖i‖²`` is formed :data:`_EXPANSION_COLUMNS`
    columns at a time, so no temporary is as wide as the block.
    """
    dtype = dots.dtype
    u_sq = (vectors.astype(dtype) ** 2).sum(axis=1, keepdims=True)
    item_sq = item_sq.astype(dtype, copy=False)
    twice = np.multiply(dots, 2.0, out=out)
    for lo in range(0, twice.shape[1], _EXPANSION_COLUMNS):
        cols = twice[:, lo:lo + _EXPANSION_COLUMNS]
        np.subtract(u_sq + item_sq[lo:lo + _EXPANSION_COLUMNS], cols,
                    out=cols)
    return np.negative(twice, out=twice)
