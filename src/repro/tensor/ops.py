"""Primitive differentiable operations.

Each function builds one node of the autograd graph: it computes the
forward value with numpy and registers a closure returning the
vector-Jacobian products for its parents.  Gradients respect numpy
broadcasting via :func:`repro.tensor.tensor.unbroadcast`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sparse import RowSparseGrad
from repro.tensor.tensor import Tensor, as_tensor, unbroadcast, is_grad_enabled

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "matmul", "exp", "log",
    "sqrt", "tanh", "abs_", "maximum", "minimum", "sum_", "mean_", "max_",
    "min_", "getitem", "take_rows", "reshape", "transpose", "clip",
    "concatenate", "stack", "where",
]


def _node(data, parents, backward):
    """Create an output tensor, recording the graph only when needed."""
    parents = [p for p in parents if isinstance(p, Tensor)]
    track = is_grad_enabled() and any(_needs_grad(p) for p in parents)
    if not track:
        return Tensor(data)
    out = Tensor(data, _parents=parents, _backward=backward)
    # Interior nodes propagate but do not accumulate into .grad themselves.
    out.requires_grad = False
    return out


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._parents != ()


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (unbroadcast(g * b.data, a.shape),
                unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        return (unbroadcast(g / b.data, a.shape),
                unbroadcast(-g * a.data / (b.data ** 2), b.shape))

    return _node(data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (-g,)

    return _node(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Raise ``a`` to a constant (non-tensor) exponent."""
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power() supports constant exponents only")
    data = a.data ** exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1),)

    return _node(data, (a,), backward)


# ----------------------------------------------------------------------
# Transcendental functions
# ----------------------------------------------------------------------
def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _node(data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _node(data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return _node(data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data ** 2),)

    return _node(data, (a,), backward)


def abs_(a) -> Tensor:
    a = as_tensor(a)
    data = np.abs(a.data)

    def backward(g):
        return (g * np.sign(a.data),)

    return _node(data, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise max; the gradient flows to the larger operand (ties split)."""
    a, b = as_tensor(a), as_tensor(b)
    data = np.maximum(a.data, b.data)

    def backward(g):
        a_wins = (a.data > b.data).astype(g.dtype)
        ties = (a.data == b.data).astype(g.dtype) * 0.5
        wa = a_wins + ties
        return (unbroadcast(g * wa, a.shape),
                unbroadcast(g * (1.0 - wa), b.shape))

    return _node(data, (a, b), backward)


def minimum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = np.minimum(a.data, b.data)

    def backward(g):
        a_wins = (a.data < b.data).astype(g.dtype)
        ties = (a.data == b.data).astype(g.dtype) * 0.5
        wa = a_wins + ties
        return (unbroadcast(g * wa, a.shape),
                unbroadcast(g * (1.0 - wa), b.shape))

    return _node(data, (a, b), backward)


def clip(a, low=None, high=None) -> Tensor:
    """Clamp values; gradient is zero outside ``[low, high]``."""
    a = as_tensor(a)
    data = np.clip(a.data, low, high)

    def backward(g):
        mask = np.ones_like(a.data)
        if low is not None:
            mask *= (a.data >= low)
        if high is not None:
            mask *= (a.data <= high)
        return (g * mask,)

    return _node(data, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(data, (a,), backward)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # Divide, then broadcast: one full-size array, the same bits.
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _node(data, (a,), backward)


def _extreme(a, axis, keepdims, fn):
    a = as_tensor(a)
    data = fn(a.data, axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        expanded = data
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
            expanded = np.expand_dims(data, axis)
        mask = (a.data == expanded).astype(a.data.dtype)
        # Split gradient across ties, matching numpy/torch convention loosely.
        mask /= mask.sum(axis=axis, keepdims=True)
        return (mask * g,)

    return _node(data, (a,), backward)


def max_(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, np.max)


def min_(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, np.min)


# ----------------------------------------------------------------------
# Shape / indexing
# ----------------------------------------------------------------------
def getitem(a, index) -> Tensor:
    """Differentiable indexing (slices, integer arrays, boolean masks)."""
    a = as_tensor(a)
    if isinstance(index, Tensor):
        index = index.data.astype(np.int64)
    data = a.data[index]
    # numpy answers basic-vs-advanced itself: basic indexing returns a
    # view, advanced indexing always copies.
    basic = isinstance(data, np.ndarray) and np.may_share_memory(data, a.data)

    def backward(g):
        out = np.zeros_like(a.data)
        if basic:
            # A basic index is a view with no repeated element: an
            # in-place add through it is the scatter-add, minus the
            # per-element cost of ``np.add.at``.
            out[index] += g
        else:
            np.add.at(out, index, g)
        return (out,)

    return _node(data, (a,), backward)


def take_rows(a, indices, sparse_grad: bool = False) -> Tensor:
    """Row gather with scatter-add backward; the embedding-lookup primitive.

    Faster than generic ``getitem`` because the backward uses bincount-style
    accumulation over the leading axis only.

    Parameters
    ----------
    sparse_grad:
        When True the backward produces a coalesced
        :class:`~repro.tensor.sparse.RowSparseGrad` over the leading
        axis instead of a dense ``zeros_like`` scatter — ``O(batch)``
        instead of ``O(num_rows)`` per step.  The sparse gradient
        reaches ``Parameter.grad`` intact only when ``a`` is a leaf;
        flowing into any interior node densifies it (see
        ``Tensor.backward``), so graph backbones behave exactly as with
        the default dense path.
    """
    a = as_tensor(a)
    idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices,
                     dtype=np.int64)
    data = a.data[idx]

    def backward(g):
        flat_idx = idx.reshape(-1)
        if a.data.ndim > 1:
            flat_g = g.reshape(-1, a.data.shape[-1])
        else:
            flat_g = g.reshape(-1)
        if sparse_grad:
            return (RowSparseGrad.from_rows(flat_idx, flat_g, a.shape),)
        out = np.zeros_like(a.data)
        np.add.at(out, flat_idx, flat_g)
        return (out,)

    return _node(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _node(data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    data = a.data.transpose(axes)

    def backward(g):
        if axes is None:
            return (g.transpose(),)
        inverse = np.argsort(axes)
        return (g.transpose(inverse),)

    return _node(data, (a,), backward)


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return _node(data, tensors, backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        # Views, like concatenate's backward: no per-input copy.
        parts = np.moveaxis(g, axis, 0)
        return tuple(parts[i] for i in range(len(tensors)))

    return _node(data, tensors, backward)


def where(condition, a, b) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is constant)."""
    cond = np.asarray(condition.data if isinstance(condition, Tensor) else condition,
                      dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    data = np.where(cond, a.data, b.data)

    def backward(g):
        return (unbroadcast(g * cond, a.shape),
                unbroadcast(g * ~cond, b.shape))

    return _node(data, (a, b), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(g):
        if a.ndim == 1 and b.ndim == 1:       # inner product
            return g * b.data, g * a.data
        if a.ndim == 1:                        # (k,) @ (k, n)
            return g @ b.data.T, np.outer(a.data, g)
        if b.ndim == 1:                        # (m, k) @ (k,)
            return np.outer(g, b.data), a.data.T @ g
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)

    return _node(data, (a, b), backward)
