"""Weight initializers.

The paper unifies initialization across models with Xavier (Glorot)
initialization; both the uniform and normal variants are provided, plus
a plain normal initializer for ablations.

Each draws the float64 stream numpy's generator gives for the shape and
returns it rounded to float32, the dtype every model is built in.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.random import ensure_rng

__all__ = ["xavier_uniform", "xavier_normal", "normal", "xavier_limit"]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer needs at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[1] * receptive, shape[0] * receptive


def xavier_limit(shape, gain: float = 1.0) -> float:
    """The Glorot-uniform bound ``a = gain * sqrt(6 / (fan_in+fan_out))``.

    Exposed so chunked initializers (e.g. the out-of-core table builder
    in :mod:`repro.train.outofcore`) can draw row blocks with the bound
    of the *full* table and draw the same values as a one-shot
    :func:`xavier_uniform` call over the same RNG.
    """
    fan_in, fan_out = _fans(tuple(shape))
    return gain * np.sqrt(6.0 / (fan_in + fan_out))


def xavier_uniform(shape, gain: float = 1.0, rng=None) -> np.ndarray:
    """Glorot uniform: U(-a, a) with ``a = gain * sqrt(6 / (fan_in+fan_out))``."""
    rng = ensure_rng(rng)
    a = xavier_limit(shape, gain)
    return rng.uniform(-a, a, size=shape).astype(np.float32)


def xavier_normal(shape, gain: float = 1.0, rng=None) -> np.ndarray:
    """Glorot normal: N(0, gain^2 * 2 / (fan_in+fan_out))."""
    rng = ensure_rng(rng)
    fan_in, fan_out = _fans(tuple(shape))
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def normal(shape, std: float = 0.1, rng=None) -> np.ndarray:
    """Plain zero-mean Gaussian initializer."""
    rng = ensure_rng(rng)
    return rng.normal(0.0, std, size=shape).astype(np.float32)
