"""Differentiable sparse propagation, with a per-graph-version cache.

GCN layers multiply a constant sparse adjacency by the dense embedding
tensor; the vector-Jacobian product is simply the transposed adjacency
applied to the upstream gradient.  Registered here as a custom autograd
op so propagation composes with the rest of the graph.

LightGCN's whole forward, the mean of ``E⁰ … Eᴸ``, is linear in ``E⁰``,
so :func:`layer_mean` runs it as one node whose backward needs no
forward state: it holds no per-layer activations.

Because LightGCN-family models re-run the *same* spmv chain several
times per training step (the scoring forward plus one or two SSL-view
forwards), :class:`PropagationCache` memoizes each ``adjacency @ x``
product per graph version.  An entry is valid only while

* the adjacency object is the same object (``graph/perturb.py`` builds
  a fresh matrix for every resampled view, so edits invalidate by
  identity),
* no parameter buffer has been mutated in place since the product was
  computed (tracked via :func:`repro.tensor.tensor.data_version`), and
* the autograd-recording mode is unchanged (a no-grad product must not
  be reused inside a training forward).  The one exception is a
  :func:`layer_mean` value (:meth:`PropagationCache.layer_mean`).

Reusing a cached node means the scoring loss and the SSL losses share
one subgraph; reverse-mode accumulation through shared parents is
exactly gradient summation, so a single ``backward()`` on the summed
loss is unchanged semantically — only the redundant forward work
disappears.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.obs.metrics import get_registry
from repro.tensor import Tensor, as_tensor, ops
from repro.tensor.parallel import csr_matmul
from repro.tensor.tensor import data_version, is_grad_enabled

__all__ = ["spmm", "layer_mean", "mark_self_transpose", "PropagationCache"]

# Attribute under which a matrix memoizes its own CSR transpose.  Tying
# the memo to the matrix object (rather than a module-level cache) means
# its lifetime exactly matches the adjacency's: discarded graph views
# free their transposes with them, and the permanent base adjacency
# keeps its transpose for every backward pass.
_TRANSPOSE_ATTR = "_repro_cached_transpose"
# The memo of a matrix that is its own transpose (a reference to the
# matrix itself would be a cycle that only the garbage collector frees).
_SELF = "self"


def mark_self_transpose(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Memoize ``matrix`` as its own CSR transpose; returns ``matrix``.

    Only for a matrix whose ``indptr``, ``indices`` and ``data`` equal
    those of ``matrix.T.tocsr()`` (the normalized bipartite adjacency):
    backward passes then multiply by ``matrix`` itself, with the bits of
    the transpose, and no second O(nnz) copy is ever built.
    """
    setattr(matrix, _TRANSPOSE_ATTR, _SELF)
    return matrix


def _transposed_csr(matrix) -> sp.csr_matrix:
    """``matrix.T.tocsr()``, memoized on the (constant) matrix itself.

    The backward pass of every spmm node on the same adjacency shares
    one transpose instead of re-materializing an O(nnz) copy per node.
    """
    cached = getattr(matrix, _TRANSPOSE_ATTR, None)
    if cached is _SELF:
        return matrix
    if cached is None:
        cached = matrix.T.tocsr()
        try:
            setattr(matrix, _TRANSPOSE_ATTR, cached)
        except AttributeError:  # exotic matrix types without __dict__
            pass
    return cached


def spmm(matrix: sp.spmatrix, x) -> Tensor:
    """Sparse-dense product ``matrix @ x`` with gradient ``matrix.T @ g``.

    Parameters
    ----------
    matrix:
        A constant scipy sparse matrix (no gradient flows into it).
    x:
        A dense :class:`Tensor` of shape ``(matrix.shape[1], d)``.
    """
    x = as_tensor(x)
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {matrix.shape} @ {x.shape}")
    csr = matrix.tocsr()
    data = csr_matmul(csr, x.data)

    def backward(g):
        return (csr_matmul(_transposed_csr(csr), g),)

    return ops._node(data, (x,), backward)


def layer_mean(adjacency: sp.spmatrix, ego, num_layers: int) -> Tensor:
    """``mean(E⁰ … Eᴸ)`` with ``Eˡ⁺¹ = adjacency @ Eˡ``, as one node.

    The forward adds the layers left to right and divides once,
    ``((E⁰ + E¹) + E²) / 3``: the float order of numpy's axis-0 mean over
    the stacked layers.  The map is linear, so the backward is Horner's
    rule on the transpose, ``h + Ãᵀ(h + Ãᵀ h)`` with ``h = g / (L + 1)``,
    and needs no forward state: the node keeps no layer, no stack and no
    broadcast copy of ``g``.  Values and gradients are bit-identical to
    the per-hop chain of :func:`spmm` nodes, ``stack`` and ``mean``
    (``tests/oracles.py::layer_mean_chain``).  ``ego`` is listed twice
    among the node's parents; see the backward.
    """
    return _layer_mean_node(adjacency.tocsr(), as_tensor(ego), num_layers)


def _layer_mean_node(csr: sp.csr_matrix, ego: Tensor, num_layers: int,
                     value=None) -> Tensor:
    """The :func:`layer_mean` node; ``value`` skips its forward."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if csr.shape[1] != ego.shape[0]:
        raise ValueError(f"shape mismatch: {csr.shape} @ {ego.shape}")
    if value is None:
        layer = csr_matmul(csr, ego.data)
        value = ego.data + layer
        for _ in range(num_layers - 1):
            layer = csr_matmul(csr, layer)
            value += layer
        value /= num_layers + 1

    def backward(g):
        h = g / (num_layers + 1)
        acc = h
        for hop in range(num_layers):
            acc = csr_matmul(_transposed_csr(csr), acc)
            if hop < num_layers - 1:
                acc += h
        # E⁰'s gradient as the chain delivered it: its own share ``h``
        # and the share back through the hops, as two contributions, so
        # ``Tensor.backward`` sums an ego shared by several views in the
        # chain's order (SGL's views stay bit-identical).
        return h, acc

    return ops._node(value, (ego, ego), backward)


class PropagationCache:
    """Memoize ``adjacency @ x`` autograd nodes per graph version.

    Owned by one model instance.  Keys are ``(id(adjacency), id(x))``
    with strong references kept for identity verification; every entry
    also records the global data-version token and grad mode at
    creation.  On any miss with a changed token the whole cache is
    dropped, so stale entries never outlive an optimizer step, a
    checkpoint restore, or a graph-view resample.  :func:`layer_mean`
    values are kept apart, keyed on the data version alone.
    """

    #: cached products kept before the cache is cleared wholesale
    MAX_ENTRIES = 32

    def __init__(self):
        self._entries: dict[tuple[int, int], tuple] = {}
        #: ``(id(matrix), num_layers) -> (matrix, data version, value)``
        self._values: dict[tuple[int, int], tuple] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # The instance attributes above stay the per-model source of
        # truth (tests pin exact counts on them); the same events also
        # feed these process-wide aggregate counters so the training
        # path's cache behaviour shows up in `repro metrics`.
        registry = get_registry()
        self._ctr_hits = registry.counter(
            "graph.propagation.hits", "propagation-cache hits")
        self._ctr_misses = registry.counter(
            "graph.propagation.misses", "propagation-cache misses")
        self._ctr_invalidated = registry.counter(
            "graph.propagation.invalidations",
            "cached propagation entries dropped (staleness or clear())")

    def _token(self) -> tuple[int, bool]:
        return (data_version(), is_grad_enabled())

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
            self._ctr_hits.inc()
        else:
            self.misses += 1
            self._ctr_misses.inc()

    def _drop(self, store: dict) -> None:
        dropped = len(store)
        store.clear()
        self.invalidations += dropped
        self._ctr_invalidated.inc(dropped)

    def _purge_if_stale(self, token) -> None:
        """Enforce the invariant that all live entries share one token.

        Entries are only ever inserted under the current token, so a
        single mismatching entry means *every* entry is stale — drop
        them all so dead autograd subgraphs aren't pinned.  Also caps
        the entry count (clearing wholesale is fine: one forward pass
        repopulates the handful of hot products).
        """
        if self._entries and (
                len(self._entries) >= self.MAX_ENTRIES
                or next(iter(self._entries.values()))[2] != token):
            self._drop(self._entries)

    def spmm(self, matrix: sp.spmatrix, x) -> Tensor:
        """Cached :func:`spmm`; falls through on any staleness signal."""
        x = as_tensor(x)
        token = self._token()
        key = (id(matrix), id(x))
        entry = self._entries.get(key)
        hit = (entry is not None and entry[0] is matrix and entry[1] is x
               and entry[2] == token)
        self._count(hit)
        if hit:
            return entry[3]
        self._purge_if_stale(token)
        out = spmm(matrix, x)
        self._entries[key] = (matrix, x, token, out)
        return out

    def layer_mean(self, matrix: sp.spmatrix, ego, num_layers: int) -> Tensor:
        """:func:`layer_mean` whose value serves both grad modes.

        The node's backward needs no forward state, so a value computed
        under ``no_grad`` (evaluation, export) is also the forward of a
        recording call at the same data version, which then runs no
        sparse product.  The value is keyed on ``(matrix, num_layers)``
        and the data version, not on ``ego``: ``ego`` must be the owning
        model's ego table, a function of its parameters, since the
        no-grad and the recording table are equal but distinct objects.
        """
        version = data_version()
        key = (id(matrix), num_layers)
        entry = self._values.get(key)
        hit = entry is not None and entry[0] is matrix and entry[1] == version
        self._count(hit)
        if not hit and self._values and next(
                iter(self._values.values()))[1] != version:
            self._drop(self._values)
        out = _layer_mean_node(matrix.tocsr(), as_tensor(ego), num_layers,
                               entry[2] if hit else None)
        self._values[key] = (matrix, version, out.data)
        return out

    def get(self, kind: str, matrix) -> Tensor | None:
        """Look up a non-spmm memo (e.g. a model's final propagate())."""
        token = self._token()
        key = (kind, id(matrix))
        entry = self._entries.get(key)
        hit = entry is not None and entry[0] is matrix and entry[2] == token
        self._count(hit)
        if hit:
            return entry[3]
        self._purge_if_stale(token)
        return None

    def put(self, kind: str, matrix, value) -> None:
        token = self._token()
        self._purge_if_stale(token)
        self._entries[(kind, id(matrix))] = (matrix, None, token, value)

    def clear(self) -> None:
        self._drop(self._entries)
        self._drop(self._values)
