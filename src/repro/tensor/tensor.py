"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction:
the paper trains its models with PyTorch, which is unavailable offline,
so we provide a small but fully tested autograd engine with the same
semantics (define-by-run graph, broadcasting-aware gradients,
accumulation into leaf tensors).

The public entry point is :class:`Tensor`.  Primitive operations live in
:mod:`repro.tensor.ops`; composite, numerically stable functions
(``sigmoid``, ``logsumexp``, ``l2_normalize`` ...) live in
:mod:`repro.tensor.functional`.

Fused kernels — the fast-path contract
--------------------------------------
:mod:`repro.tensor.functional` additionally provides *fused* primitives
(``fused_softmax_loss``, ``fused_bsl_loss``, ``fused_infonce_loss``,
``fused_sampled_scores``).  A fused kernel collapses a composite
expression that would otherwise build ~10 graph nodes into a **single**
node: the forward pass is one numpy evaluation of the whole expression
and the backward pass is one hand-derived vector-Jacobian product.  The
kernel is the only definition of its objective in ``src/``.

The contract every fused kernel must satisfy:

1. **Value equivalence** — for all inputs in the domain of the
   compositional expression, the fused forward agrees with the
   compositional forward to within a few ULPs (tests enforce ≤ 1e-10
   relative); both use the same max-shift stabilisation, so extreme
   logits behave identically.
2. **Gradient equivalence** — the fused VJP agrees with both the
   compositional autograd gradient and central finite differences to
   ≤ 1e-6 absolute (``tests/test_tensor_fused.py`` gradchecks every
   kernel, including broadcast and single-row edge cases, and checks
   each against a deliberately doubled gradient as a control).
3. **The oracle lives in ``tests/``** — the compositional expression is
   written once, in ``tests/oracles.py``, from the public functions of
   this package; no caller selects between it and the kernel.  (The
   oracle of ``fused_sampled_scores`` is the full-catalogue
   ``catalogue_batch_scores`` there.)

To add a new fused VJP: write the compositional version in
``tests/oracles.py`` first, derive the closed-form gradient, implement
forward+backward as one ``ops._node`` call caching only what backward
needs, and register a gradcheck against the oracle in
``tests/test_tensor_fused.py``.

Row-sparse gradients
--------------------
``ops.take_rows(..., sparse_grad=True)`` makes the embedding-lookup
backward emit a coalesced :class:`~repro.tensor.sparse.RowSparseGrad`
instead of a dense scatter.  The engine keeps such gradients sparse
only on the direct path into a leaf: sparse + sparse accumulation
merges, sparse + dense densifies, and a sparse gradient flowing into
any *interior* node is densified before that node's backward runs —
the escape hatch that keeps every dense VJP valid (see
``docs/training.md`` for the full contract and the sparse optimizers).

In-place data versioning
------------------------
Code that mutates ``Tensor.data`` buffers in place (optimizer steps,
checkpoint restores, norm projections) must call
:func:`bump_data_version` afterwards; caches keyed on model parameters
(e.g. :class:`repro.graph.propagation.PropagationCache`) compare
:func:`data_version` tokens to detect staleness.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "unbroadcast", "no_grad", "is_grad_enabled",
           "data_version", "bump_data_version"]

_GRAD_ENABLED = [True]

# Monotonic counter over in-place mutations of tensor data buffers.
# See the module docstring ("In-place data versioning") for the contract.
_DATA_VERSION = [0]


def data_version() -> int:
    """Current global data-version token (changes after any in-place edit)."""
    return _DATA_VERSION[0]


def bump_data_version() -> int:
    """Advance the data-version token; call after mutating ``.data`` in place."""
    _DATA_VERSION[0] += 1
    return _DATA_VERSION[0]


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation returns a detached
    tensor, mirroring ``torch.no_grad``.  Used by evaluation code to avoid
    keeping training graphs alive.
    """

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_ENABLED[0] = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED[0]


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting implicitly expands operands; the vector-Jacobian
    product of a broadcast is a sum over the expanded axes.  This helper
    reverses any standard numpy broadcast.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Stored as ``float64`` unless the
        input already has a floating dtype.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None,
                 name: str | None = None):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = _backward
        self._parents = tuple(_parents) if is_grad_enabled() else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ones, which for a scalar loss is
            the conventional ``dL/dL = 1``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS: recursion would overflow on deep graphs (e.g. many
        # stacked propagation layers or long training loops kept alive).
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            if isinstance(g, RowSparseGrad):
                # A row-sparse gradient (from ``take_rows(sparse_grad=
                # True)``) stays sparse only while it flows into a leaf.
                # Interior nodes (graph propagation, whole-table
                # normalization, ...) receive the dense equivalent — the
                # escape hatch that keeps every existing backward VJP
                # valid without sparse-aware rewrites.
                g = g.densify()
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # ------------------------------------------------------------------
    # Operator overloads (implemented in repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return ops.add(self, other)

    def __radd__(self, other):
        return ops.add(other, self)

    def __sub__(self, other):
        return ops.sub(self, other)

    def __rsub__(self, other):
        return ops.sub(other, self)

    def __mul__(self, other):
        return ops.mul(self, other)

    def __rmul__(self, other):
        return ops.mul(other, self)

    def __truediv__(self, other):
        return ops.div(self, other)

    def __rtruediv__(self, other):
        return ops.div(other, self)

    def __neg__(self):
        return ops.neg(self)

    def __pow__(self, exponent):
        return ops.power(self, exponent)

    def __matmul__(self, other):
        return ops.matmul(self, other)

    def __getitem__(self, index):
        return ops.getitem(self, index)

    # Comparisons produce plain (non-differentiable) numpy arrays.
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    # ------------------------------------------------------------------
    # Method aliases for common ops
    # ------------------------------------------------------------------
    def exp(self):
        return ops.exp(self)

    def log(self):
        return ops.log(self)

    def sqrt(self):
        return ops.sqrt(self)

    def tanh(self):
        return ops.tanh(self)

    def abs(self):
        return ops.abs_(self)

    def sum(self, axis=None, keepdims=False):
        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return ops.mean_(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return ops.max_(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims=False):
        return ops.min_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes=None):
        return ops.transpose(self, axes)

    @property
    def T(self):
        return ops.transpose(self, None)

    def clip(self, low=None, high=None):
        return ops.clip(self, low, high)

    def unsqueeze(self, axis):
        """Insert a length-1 axis (torch-style helper)."""
        new_shape = list(self.shape)
        if axis < 0:
            axis += self.ndim + 1
        new_shape.insert(axis, 1)
        return ops.reshape(self, tuple(new_shape))

    def squeeze(self, axis):
        new_shape = list(self.shape)
        if new_shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        del new_shape[axis]
        return ops.reshape(self, tuple(new_shape))


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def _raw(value):
    return value.data if isinstance(value, Tensor) else value


# Imported at the bottom to resolve the Tensor <-> ops cycle.
from repro.tensor import ops  # noqa: E402  (intentional late import)
from repro.tensor.sparse import RowSparseGrad  # noqa: E402
