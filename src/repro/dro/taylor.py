"""Second-order expansion of the Log-Expectation-Exp structure (Lemma 2).

Lemma 2 approximates SL's negative part for large τ:

``τ·log E[exp(f/τ)] ≈ E[f] + V[f] / (2τ)``

revealing the implicit *variance penalty* that drives SL's fairness
(Fig. 4a/5).  This module provides both sides of the identity plus the
approximation error, which the property tests drive to zero as τ grows.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp as _logsumexp

__all__ = ["log_expectation_exp", "taylor_approximation",
           "approximation_error", "variance_penalty"]


def log_expectation_exp(scores: np.ndarray, tau: float) -> float:
    """Exact ``τ · log E[exp(f/τ)]`` under the uniform distribution."""
    scores = np.asarray(scores, dtype=np.float64)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(tau * (_logsumexp(scores / tau) - np.log(scores.size)))


def variance_penalty(scores: np.ndarray, tau: float) -> float:
    """The Lemma 2 regularizer ``V[f] / (2τ)``."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(scores.var() / (2.0 * tau))


def taylor_approximation(scores: np.ndarray, tau: float) -> float:
    """Second-order approximation ``E[f] + V[f]/(2τ)`` of Eq. (13)."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(scores.mean() + variance_penalty(scores, tau))


def approximation_error(scores: np.ndarray, tau: float) -> float:
    """Absolute gap between the exact value and the expansion.

    Lemma 2's ``o(1/τ)`` remainder: must vanish faster than ``1/τ`` as
    ``τ → ∞`` (verified by the dro property tests).
    """
    return abs(log_expectation_exp(scores, tau)
               - taylor_approximation(scores, tau))
