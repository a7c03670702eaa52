"""Robustness radius and optimal temperature (Corollary III.1, Fig. 3b).

The paper relates the temperature and the robustness radius through

``τ* ≈ sqrt( V[f(u,j)] / (2η) )``   (Eq. 16)

equivalently ``η ≈ V[f] / (2 τ²)``.  These helpers convert between the
two and estimate them from model scores, powering the Fig. 3b study
("η rises with the noise level at the grid-searched best τ").
"""

from __future__ import annotations

import numpy as np

__all__ = ["optimal_tau", "implied_eta", "score_variance",
           "eta_distribution"]


def score_variance(scores: np.ndarray, axis=None) -> np.ndarray:
    """Population variance of negative scores ``V[f(u, j)]``."""
    return np.asarray(scores, dtype=np.float64).var(axis=axis)


def optimal_tau(variance: float, eta: float) -> float:
    """Eq. (16): ``τ* = sqrt(V / (2η))``."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return float(np.sqrt(variance / (2.0 * eta)))


def implied_eta(variance: float, tau: float) -> float:
    """Invert Eq. (16): ``η = V / (2 τ²)``."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(variance / (2.0 * tau ** 2))


def eta_distribution(neg_scores: np.ndarray, tau: float) -> np.ndarray:
    """Per-user implied η values from a matrix of negative scores.

    Parameters
    ----------
    neg_scores:
        Shape ``(n_users, n_negatives)`` — one row of sampled negative
        scores per user.
    tau:
        The (grid-searched) temperature in use.

    Returns
    -------
    Shape ``(n_users,)`` array of η estimates, the quantity whose
    distribution Fig. 3b plots across noise levels.
    """
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if neg_scores.ndim != 2:
        raise ValueError(f"neg_scores must be 2-D, got {neg_scores.shape}")
    variances = neg_scores.var(axis=1)
    return variances / (2.0 * tau ** 2)
