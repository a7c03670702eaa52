"""Worst-case distributions of the KL-DRO problem (Lemma 1, Fig. 4b).

For the inner maximization ``max_{P: KL(P||P0) ≤ η} E_P[f]`` the optimal
(worst-case) distribution is the exponential tilt

``P*(j) ∝ P0(j) · exp(f(j)/τ)``

where ``τ`` is the optimal Lagrange multiplier — i.e. SL's softmax
weights over negatives *are* the worst-case sampling probabilities.
These helpers compute the tilt, its KL radius, and the DRO objective
value, powering the Fig. 4b weight-vs-score study and the Lemma 1
identity tests.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp as _logsumexp

__all__ = ["worst_case_weights", "kl_divergence", "tilted_radius",
           "dro_objective", "dro_objective_exact"]


def worst_case_weights(scores: np.ndarray, tau: float,
                       base_probs: np.ndarray | None = None) -> np.ndarray:
    """Exponentially tilted distribution ``P*(j) ∝ P0(j) exp(f_j/τ)``.

    Parameters
    ----------
    scores:
        Negative-item scores ``f(u, j)`` (1-D).
    tau:
        Temperature / Lagrange multiplier.
    base_probs:
        Nominal distribution ``P0``; uniform when omitted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if base_probs is None:
        log_base = -np.log(len(scores)) * np.ones_like(scores)
    else:
        base_probs = np.asarray(base_probs, dtype=np.float64)
        if base_probs.shape != scores.shape:
            raise ValueError("base_probs must match scores shape")
        with np.errstate(divide="ignore"):
            log_base = np.log(base_probs)
    logits = log_base + scores / tau
    logits -= _logsumexp(logits)
    return np.exp(logits)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """``KL(p || q)`` for discrete distributions (0 log 0 := 0)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def tilted_radius(scores: np.ndarray, tau: float,
                  base_probs: np.ndarray | None = None) -> float:
    """KL distance of the worst-case tilt from the nominal distribution.

    This is the *effective robustness radius* η implied by a temperature
    τ at the current scores — the quantity Fig. 3b tracks as noise grows.
    """
    p_star = worst_case_weights(scores, tau, base_probs)
    if base_probs is None:
        base_probs = np.full_like(p_star, 1.0 / len(p_star))
    return kl_divergence(p_star, base_probs)


def dro_objective(scores: np.ndarray, tau: float,
                  base_probs: np.ndarray | None = None) -> float:
    """SL's negative part ``τ · log E_P0[exp(f/τ)]`` (Eq. 5)."""
    scores = np.asarray(scores, dtype=np.float64)
    if base_probs is None:
        return float(tau * (_logsumexp(scores / tau) - np.log(len(scores))))
    base_probs = np.asarray(base_probs, dtype=np.float64)
    return float(tau * _logsumexp(scores / tau, b=base_probs))


def dro_objective_exact(scores: np.ndarray, eta: float,
                        base_probs: np.ndarray | None = None,
                        tol: float = 1e-10) -> tuple[float, float]:
    """Solve ``max_{KL(P||P0) ≤ η} E_P[f]`` exactly by bisection on τ.

    Returns ``(objective_value, tau_star)``.  Used by the Lemma 1 tests:
    the value must equal ``τ*·log E[exp(f/τ*)] + τ*·η`` and the argmax
    must be the exponential tilt at τ*.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if base_probs is None:
        base_probs = np.full(len(scores), 1.0 / len(scores))
    if eta == 0:
        return float(np.dot(base_probs, scores)), float("inf")
    # The tilt radius is monotonically decreasing in tau; bisect for
    # radius(tau) == eta.  Guard the degenerate constant-score case.
    if np.allclose(scores, scores[0]):
        return float(scores[0]), float("inf")

    max_radius = kl_divergence(
        _argmax_distribution(scores, base_probs), base_probs)
    if not np.isfinite(max_radius) or eta >= max_radius:
        # Radius large enough to put all mass on the max score.
        return float(scores.max()), 0.0

    lo, hi = 1e-8, 1e8
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # log-scale bisection
        radius = kl_divergence(worst_case_weights(scores, mid, base_probs),
                               base_probs)
        if radius > eta:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + tol:
            break
    tau_star = np.sqrt(lo * hi)
    p_star = worst_case_weights(scores, tau_star, base_probs)
    return float(np.dot(p_star, scores)), float(tau_star)


def _argmax_distribution(scores: np.ndarray,
                         base_probs: np.ndarray) -> np.ndarray:
    mask = scores == scores.max()
    p = base_probs * mask
    return p / p.sum()
