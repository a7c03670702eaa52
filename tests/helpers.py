"""Shared test helpers (gradient checking, the float32 tolerance)."""

from __future__ import annotations

import numpy as np

from repro.tensor import RowSparseGrad, Tensor

#: The one tolerance of a pin whose two sides round differently: a
#: float32 model result against a float64 reference, or two float32
#: paths that sum in different orders.  It serves as both ``rtol`` and
#: ``atol`` (:func:`assert_close32`): 64 float32 ulps (``64 * 2**-23``)
#: covers the rounding of the short sums the pinned kernels take (dot
#: products over ``dim``, a batch row's softmax), while a wrong term
#: moves a value by far more.  Pins between two production float32
#: results that take the same operations stay bitwise.
TOL32 = 64 * float(np.finfo(np.float32).eps)


def assert_close32(actual, desired) -> None:
    """``actual`` equals ``desired`` to :data:`TOL32`."""
    np.testing.assert_allclose(actual, desired, rtol=TOL32, atol=TOL32)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = fn(x)
        flat[idx] = orig - eps
        f_minus = fn(x)
        flat[idx] = orig
        gflat[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_gradient(tensor_fn, numpy_fn, shape, rng, atol=1e-5,
                   low=-2.0, high=2.0):
    """Compare autograd vs finite differences for one op.

    ``tensor_fn(Tensor) -> scalar Tensor`` and ``numpy_fn(ndarray) ->
    float`` must compute the same function.
    """
    x = rng.uniform(low, high, size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = tensor_fn(t)
    assert out.size == 1, "gradcheck target must be scalar"
    out.backward()
    expected = numeric_gradient(lambda arr: float(numpy_fn(arr)), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol,
                               err_msg="autograd gradient mismatch")
    np.testing.assert_allclose(out.item(), float(numpy_fn(x)), atol=1e-8)


def check_gradient_against_control(fn, arrays, rng, eps=1e-6,
                                   pass_ratio=1e-3):
    """Trust a gradient only against a deliberately wrong one.

    ``fn(*Tensors) -> scalar Tensor``.  All inputs move along one random
    step ``dx``; with ``g₊``/``g₋`` the autograd gradients at ``x ± dx``
    the residual ``|f(x+dx) − f(x−dx) − (g₊+g₋)·dx|`` is third order in
    ``dx`` for the true gradient and first order for a doubled one, so
    their ratio must be tiny — a check no loose ``atol`` can pass
    vacuously.
    """
    steps = [2.0 * eps * (rng.random(a.shape) - 0.5) for a in arrays]

    def value_and_slope(sign):
        inputs = [Tensor(a + sign * dx, requires_grad=True)
                  for a, dx in zip(arrays, steps)]
        out = fn(*inputs)
        assert out.size == 1, "gradcheck target must be scalar"
        out.backward()
        grads = [t.grad.densify() if isinstance(t.grad, RowSparseGrad)
                 else t.grad for t in inputs]
        return out.item(), sum(float((g * dx).sum())
                               for g, dx in zip(grads, steps))

    f_minus, slope_minus = value_and_slope(-1.0)
    f_plus, slope_plus = value_and_slope(+1.0)
    slope = slope_minus + slope_plus
    true_residual = abs(f_plus - f_minus - slope)
    control_residual = abs(f_plus - f_minus - 2.0 * slope)
    assert true_residual / control_residual < pass_ratio, (
        f"gradient no better than its doubled control: residual "
        f"{true_residual:.3e} vs {control_residual:.3e}")
