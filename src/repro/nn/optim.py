"""Optimizers: Adam and its row-sparse counterpart.

The paper trains every model with Adam (Sec. V-A).  ``weight_decay``
implements the L2 penalty the paper grid-searches over {1e-9 .. 1e-1}.

Row-sparse training (``docs/training.md``)
------------------------------------------
:class:`SparseAdam` consumes the
:class:`~repro.tensor.sparse.RowSparseGrad` gradients produced by
``take_rows(..., sparse_grad=True)`` and updates **only the touched
rows** of a table, so per-step optimizer cost scales with the batch
instead of the catalogue.  It supports two modes:

* ``"lazy"`` (the fast default) — exactly the ``torch.optim.SparseAdam``
  semantics: moments of untouched rows are never decayed and untouched
  rows never move.  ``weight_decay`` is *lazy regularization*: applied
  to a row only on the steps that touch it, so heavily-sampled rows are
  decayed more often (the FTRL-style convention of production
  recommenders).
* ``"exact"`` — numerically equivalent to dense :class:`Adam` fed
  explicit zero gradients for untouched rows.  Each parameter keeps a
  per-row ``last step`` clock; when a row is touched, the optimizer
  first *replays* the zero-gradient updates it skipped (moment decay,
  bias correction with the true historical step numbers, and the
  ``weight_decay`` pull each skipped step would have applied), then
  applies the real gradient.  :meth:`SparseAdam.flush` replays every
  row up to the current step — the trainer calls it before
  evaluation/checkpointing so observed parameters always match the
  dense trajectory.

Dense :class:`Adam` accepts a ``RowSparseGrad`` too and densifies it:
scoring emits row-sparse gradients for leaf tables in every
``grad_mode`` (``Recommender.batch_scores``), and a dense step then
moves every row exactly as if it had been handed ``grad.densify()``.

Both run one in-place kernel that walks a table in row chunks
(``Adam._rows``; cache-sized unless the block shares the cores): dense
``Adam`` over every row, ``SparseAdam`` over the touched rows and
``exact`` mode's replays.

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
    would poison the tables are rejected (NaN included): a beta of 1
    zeroes the bias correction (every parameter turns NaN on the first
    step), a non-positive ``eps`` divides zero moments by zero, and a
    negative ``weight_decay`` pushes parameters away from zero.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not all(0.0 <= beta < 1.0 for beta in betas):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, "
                             f"got {weight_decay}")
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
        """Update every row of every parameter with a gradient (a
        ``RowSparseGrad`` is densified first)."""
        self._t += 1
        # Python floats: numpy's power ufunc rounds some steps' powers
        # differently from libm's pow (e.g. 0.999 ** 7).
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        changed = False
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if isinstance(g, RowSparseGrad):
                g = g.densify()
            self._rows(i, slice(None), g, bias1, bias2)
            changed = True
        if changed:
            bump_data_version()

    def flush(self) -> None:
        """Apply any deferred updates: none here.

        Callers that read parameters (evaluation, checkpointing) can
        always call this; only :class:`SparseAdam`'s ``exact`` mode
        defers updates.
        """

    def _rows(self, i: int, rows, g, bias1, bias2) -> None:
        """The Adam update of ``rows`` (ids or ``slice(None)``), in place,
        with scalar or per-row (``(len(rows), 1, ...)``) bias terms."""
        p = self.params[i]
        b1, b2 = self.beta1, self.beta2
        per_row = np.ndim(bias1) > 0

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
            np.divide(M, bias1[at] if per_row else bias1, out=T)
            T *= self.lr
            np.divide(V, bias2[at] if per_row else bias2, out=G)
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
        the two scratch buffers only.  ``g``: an array or scalar 0.0.
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
                    update(at, g[at] if isinstance(g, np.ndarray) else g,
                           bufs, work[-2, :width], work[-1, :width])
                    if not dense:
                        for t, buf in zip(tables, bufs):
                            t[rows[at]] = buf
            finally:
                self._work.append(raw)

        parallel.fan_out(n, block, _MIN_ROWS)


class SparseAdam(Adam):
    """Adam over row-sparse gradients (``torch.optim.SparseAdam`` family).

    ``lazy``: exactly PyTorch's ``SparseAdam`` update — only touched
    rows have their moments decayed and bias-corrected against the
    *global* step count; ``weight_decay`` is lazy regularization
    (applied to a row only when it is touched).  ``exact``: per-row
    step clocks replay the skipped zero-gradient updates (including the
    per-step ``weight_decay`` pull) so the trajectory is numerically
    equivalent to dense :class:`Adam`; call :meth:`flush` (the trainer
    does) before reading parameters.

    A parameter whose gradient arrives dense (auxiliary weights, graph
    backbones whose gradients densified at propagation) is updated
    whole, after its idle rows caught up in ``exact`` mode.
    """

    MODES = ("lazy", "exact")

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 mode: str = "lazy"):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        super().__init__(params, lr, betas, eps, weight_decay)
        self.mode = mode
        #: per-parameter step clock of each row's last applied update
        #: (exact mode only).
        self._last = ([np.zeros(len(p.data), dtype=np.int64)
                       for p in self.params] if mode == "exact" else None)

    def step(self) -> None:
        self._t += 1
        exact = self.mode == "exact"
        # numpy's power, like the per-row bias terms of the replays
        t = np.asarray(self._t, dtype=np.float64)
        bias1, bias2 = 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t
        changed = False
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if isinstance(p.grad, RowSparseGrad):
                rows, g = p.grad.indices, p.grad.values
                if not len(rows):
                    continue  # nothing touched: not a change
            else:
                rows, g = slice(None), p.grad
            if exact:
                # Replay the zero-grad updates these rows skipped first (a
                # dense gradient — auxiliary losses, graph models — touches
                # every row), or dense parity would silently break.
                self._catch_up(i, rows if isinstance(rows, np.ndarray)
                               else np.arange(len(p.data)), self._t - 1)
            self._rows(i, rows, g, bias1, bias2)
            if exact:
                self._last[i][rows] = self._t
            changed = True
        if changed:
            bump_data_version()

    def flush(self) -> None:
        """Replay every pending zero-gradient update (exact mode).

        After ``flush()`` the parameters are bit-for-bit what the dense
        optimizer would hold after the same gradient stream.  A no-op in
        lazy mode (lazy rows intentionally never receive the skipped
        updates).
        """
        if self.mode != "exact":
            return
        changed = False
        for i, p in enumerate(self.params):
            stale = np.nonzero(self._last[i] < self._t)[0]
            if len(stale):
                self._catch_up(i, stale, self._t)
                self._last[i][stale] = self._t
                changed = True
        if changed:
            bump_data_version()

    def _catch_up(self, i: int, rows: np.ndarray, upto: int) -> None:
        """Replay the zero-grad steps ``last[row]+1 .. upto`` per row;
        callers advance the per-row clock afterwards."""
        last = self._last[i][rows]
        gaps = upto - last
        pending = gaps > 0
        if not pending.any():
            return
        rows, last, gaps = rows[pending], last[pending], gaps[pending]
        if self.weight_decay == 0.0:
            # Zero moments + zero grad + zero decay: the replayed steps
            # are exact no-ops, so the clock can jump for free.  This is
            # what keeps exact-mode cost amortized — a row's first touch
            # does not pay for the whole warm-up history.
            busy = (self._m[i][rows].reshape(len(rows), -1).any(axis=1)
                    | self._v[i][rows].reshape(len(rows), -1).any(axis=1))
            rows, last, gaps = rows[busy], last[busy], gaps[busy]
            if not len(rows):
                return
        shape = (-1,) + (1,) * (self.params[i].ndim - 1)
        for j in range(1, int(gaps.max()) + 1):
            active = gaps >= j
            steps = (last[active] + j).astype(np.float64).reshape(shape)
            self._rows(i, rows[active], 0.0, 1.0 - self.beta1 ** steps,
                       1.0 - self.beta2 ** steps)
