"""Optimizers: Adam and its row-sparse counterpart.

The paper trains every model with Adam (Sec. V-A).  ``weight_decay``
implements the L2 penalty the paper grid-searches over {1e-9 .. 1e-1}.

Row-sparse training (``docs/training.md``)
------------------------------------------
:class:`SparseAdam` consumes the
:class:`~repro.tensor.sparse.RowSparseGrad` gradients produced by
``take_rows(..., sparse_grad=True)`` and updates **only the touched
rows** of a table, so per-step cost scales with the batch instead of
the catalogue.  Its update rule is ``torch.optim.SparseAdam``'s:
untouched rows and their moments never move, and touched rows are
bias-corrected against the *global* step count.  ``weight_decay`` is
*lazy regularization*: applied to a row only on the steps that touch
it, so heavily-sampled rows are decayed more often (the FTRL-style
convention of production recommenders).

Dense :class:`Adam` accepts a ``RowSparseGrad`` too and densifies it:
scoring emits row-sparse gradients for leaf tables in every
``grad_mode`` (``Recommender.batch_scores``), and a dense step then
moves every row exactly as if it had been handed ``grad.densify()``.

Both run one in-place kernel that walks a table in row chunks
(``Adam._rows``; cache-sized unless the block shares the cores): dense
``Adam`` over every row, ``SparseAdam`` over the touched rows.

Every ``step()`` bumps the global data version only when at least one
parameter actually changed, so a no-op step (all grads ``None`` or empty)
cannot spuriously invalidate
:class:`~repro.graph.propagation.PropagationCache` entries.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.tensor import parallel
from repro.tensor.sparse import RowSparseGrad
from repro.tensor.tensor import bump_data_version

__all__ = ["Adam", "SparseAdam"]

#: Bytes per workspace buffer of the row kernel in a block that runs alone
#: (256 rows at dim 64; :func:`~repro.tensor.parallel.chunk_bytes` gives a
#: block that shares the cores longer chunks).  Measured on one worker of
#: a 2-vCPU box with 2 MiB of L2 per core: a 49.6k-row step takes 53-63 ms
#: at 128 KiB and 70-73 ms at 512 KiB.
_CHUNK_BYTES = 128 * 1024
#: Fewest rows per block a core gets: below it the hand-off to a worker
#: costs what the split saves (Adam, dim 64, 2 cores: 1024 rows 250 us in
#: one block vs 267 in two, 2048 rows 512 vs 409, 4096 rows 1124 vs 786).
_MIN_ROWS = 1024


def _zero_state(params) -> list[np.ndarray]:
    """One C-ordered zero array per parameter, as untouched zero pages.

    ``np.zeros`` gets pre-zeroed memory from the allocator, where
    ``np.zeros_like`` writes every byte: state costs resident memory only
    as its rows are first updated (on a 100k-row table, the moments of
    the rows a sparse step has not reached yet cost nothing).
    """
    return [np.zeros(p.data.shape, p.data.dtype) for p in params]


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    Matches the PyTorch defaults the paper uses: ``betas=(0.9, 0.999)``,
    ``eps=1e-8``.  ``weight_decay`` adds an L2 term to the gradient
    (classic Adam-L2, as in ``torch.optim.Adam``).  Hyperparameters that
    would poison the tables are rejected (NaN and infinity included): a
    beta of 1 zeroes the bias correction (every parameter turns NaN on
    the first step), a non-positive ``eps`` divides zero moments by zero
    and an infinite one freezes every row, an infinite ``lr`` or
    ``weight_decay`` sends rows to infinity or NaN, and a negative
    ``weight_decay`` pushes parameters away from zero.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, "
                             f"got {lr}")
        if not all(0.0 <= beta < 1.0 for beta in betas):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not 0 < eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if not 0 <= weight_decay < np.inf:
            raise ValueError(f"weight_decay must be non-negative and "
                             f"finite, got {weight_decay}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        self._m = _zero_state(self.params)
        self._v = _zero_state(self.params)
        #: free list of kernel workspaces (raw bytes, shared by every
        #: parameter): one per row block running at once.
        self._work: list[np.ndarray] = []

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Update the rows :meth:`_touched` selects of every parameter
        with a gradient."""
        self._t += 1
        bias1, bias2 = self._bias()
        changed = False
        for i, p in enumerate(self.params):
            touched = None if p.grad is None else self._touched(p.grad)
            if touched is not None:
                self._rows(i, *touched, bias1, bias2)
                changed = True
        if changed:
            bump_data_version()

    def _bias(self):
        """``1 - beta ** t`` for both betas, as Python floats: numpy's
        power ufunc rounds some steps' powers differently from libm's pow
        (e.g. ``0.999 ** 7``)."""
        return 1.0 - self.beta1 ** self._t, 1.0 - self.beta2 ** self._t

    def _touched(self, grad):
        """``(rows, gradient of those rows)``: every row (a
        ``RowSparseGrad`` is densified first)."""
        if isinstance(grad, RowSparseGrad):
            grad = grad.densify()
        return slice(None), grad

    def _rows(self, i: int, rows, g, bias1, bias2) -> None:
        """The Adam update of ``rows`` (ids or ``slice(None)``), in place."""
        p = self.params[i]
        b1, b2 = self.beta1, self.beta2

        def update(at, gc, bufs, G, T):
            P, M, V = bufs
            if self.weight_decay:
                np.multiply(P, self.weight_decay, out=T)
                gc = np.add(gc, T, out=G)
            M *= b1
            M += np.multiply(gc, 1.0 - b1, out=T)
            V *= b2
            np.multiply(gc, 1.0 - b2, out=T)
            T *= gc
            V += T
            np.divide(M, bias1, out=T)
            T *= self.lr
            np.divide(V, bias2, out=G)
            np.sqrt(G, out=G)
            G += self.eps
            T /= G
            P -= T

        self._chunks(i, rows, g, [p.data, self._m[i], self._v[i]], update)

    def _chunks(self, i: int, rows, g, tables, update) -> None:
        """``update(positions, g chunk, table chunks, scratch G, scratch T)``
        per chunk of ``rows`` (ids or ``slice(None)``) of the size
        :func:`~repro.tensor.parallel.chunk_bytes` gives, in row blocks
        over one worker per core (:func:`~repro.tensor.parallel.fan_out`),
        each block with a workspace of its own.  Index-array chunks are
        gathered into the workspace before and scattered back after the
        in-place update (ids are unique, so blocks write disjoint rows);
        ``slice(None)`` chunks are views, so a dense step's workspace is
        the two scratch buffers only.
        """
        dense, table = isinstance(rows, slice), tables[0]
        n = len(table) if dense else len(rows)
        n_bufs = 2 if dense else len(tables) + 2
        row_bytes = table[:1].nbytes

        def block(lo: int, hi: int) -> None:
            size = max(1, min(len(table), parallel.chunk_bytes(_CHUNK_BYTES)
                              // (row_bytes or 1)))
            need = n_bufs * size * row_bytes
            try:  # one atomic pop: another block may take the last one
                raw = self._work.pop()
            except IndexError:
                raw = None
            if raw is None or raw.nbytes < need:
                raw = np.empty(need, np.uint8)
            work = raw[:need].view(table.dtype).reshape(
                (n_bufs, size) + table.shape[1:])
            try:
                for start in range(lo, hi, size):
                    at = slice(start, min(start + size, hi))
                    width = at.stop - start
                    if dense:
                        bufs = [t[at] for t in tables]
                    else:
                        bufs = [np.take(t, rows[at], axis=0, out=w[:width],
                                        mode="clip")
                                for t, w in zip(tables, work)]
                    update(at, g[at], bufs, work[-2, :width],
                           work[-1, :width])
                    if not dense:
                        for t, buf in zip(tables, bufs):
                            t[rows[at]] = buf
            finally:
                self._work.append(raw)

        parallel.fan_out(n, block, _MIN_ROWS)


class SparseAdam(Adam):
    """Adam over row-sparse gradients: ``torch.optim.SparseAdam``'s update.

    Only the touched rows of a ``RowSparseGrad`` have their moments
    decayed and are moved, bias-corrected against the *global* step
    count; ``weight_decay`` is lazy regularization (applied to a row
    only when it is touched).  An empty gradient touches nothing.  A
    parameter whose gradient arrives dense (auxiliary weights, graph
    backbones whose gradients densified at propagation) is updated
    whole.
    """

    def _bias(self):
        """``1 - beta ** t`` through numpy's power, not Python's: the two
        round some steps differently (``0.999 ** 7``), and numpy's is
        what every lazy trajectory was computed with.  Returned as
        Python floats, which numpy treats as weak scalars: a numpy
        float64 would run a float32 table's update in float64."""
        return (float(1.0 - np.power(self.beta1, self._t)),
                float(1.0 - np.power(self.beta2, self._t)))

    def _touched(self, grad):
        """``(ids, values)`` of a ``RowSparseGrad``, ``None`` when it
        touches no row; every row of a dense gradient."""
        if not isinstance(grad, RowSparseGrad):
            return slice(None), grad
        return (grad.indices, grad.values) if len(grad.indices) else None
