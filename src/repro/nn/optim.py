"""Optimizers: dense SGD/Adam and their row-sparse counterparts.

The paper trains every model with Adam; SGD is kept for tests and
ablations.  ``weight_decay`` implements the L2 penalty the paper
grid-searches over {1e-9 .. 1e-1}.

Row-sparse training (``docs/training.md``)
------------------------------------------
:class:`SparseAdam` and :class:`SparseSGD` consume the
:class:`~repro.tensor.sparse.RowSparseGrad` gradients produced by
``take_rows(..., sparse_grad=True)`` and update **only the touched
rows** of a table, so per-step optimizer cost scales with the batch
instead of the catalogue.  Both support two modes:

* ``"lazy"`` (the fast default) — exactly the ``torch.optim.SparseAdam``
  semantics: moments of untouched rows are never decayed and untouched
  rows never move.  ``weight_decay`` is *lazy regularization*: applied
  to a row only on the steps that touch it, so heavily-sampled rows are
  decayed more often (the FTRL-style convention of production
  recommenders).
* ``"exact"`` — numerically equivalent to the dense optimizer fed
  explicit zero gradients for untouched rows.  Each parameter keeps a
  per-row ``last step`` clock; when a row is touched, the optimizer
  first *replays* the zero-gradient updates it skipped (moment decay,
  bias correction with the true historical step numbers, and the
  ``weight_decay`` pull each skipped step would have applied), then
  applies the real gradient.  :meth:`SparseOptimizer.flush` replays
  every row up to the current step — the trainer calls it before
  evaluation/checkpointing so observed parameters always match the
  dense trajectory.

The dense optimizers accept a ``RowSparseGrad`` too and densify it:
scoring emits row-sparse gradients for leaf tables in every
``grad_mode`` (``Recommender.batch_scores``), and a dense ``Adam`` /
``SGD`` step then moves every row exactly as if it had been handed
``grad.densify()``.

Each update rule has one in-place kernel that walks a table in
cache-sized row chunks (``Adam._rows``, ``SGD._rows``): the dense
optimizers run it over every row, the sparse ones over the touched rows
and ``exact`` mode's replays.

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

__all__ = ["Optimizer", "SGD", "Adam", "SparseOptimizer", "SparseSGD",
           "SparseAdam"]

#: Bytes per workspace buffer of the row kernels (256 rows at dim 64), sized
#: to a 4 MiB L2: 2x measured ~10 ms slower on a 48k-row step, 4x+ ~25 ms.
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


class Optimizer:
    """Base class: the parameter list, the zero-grad hook and the chunk
    walk of the in-place row kernels every update rule runs through."""

    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._t = 0
        #: per-parameter free list of kernel workspaces, five chunk-sized
        #: row buffers each: one per row block running at once.
        self._work: list[list[np.ndarray]] = [[] for _ in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Apply any deferred updates; a no-op for dense optimizers.

        Callers that read parameters (evaluation, checkpointing) can
        always call this unconditionally; only ``exact``-mode sparse
        optimizers override it with real work.
        """

    def _every_row(self, update) -> None:
        """The dense step: ``update(i, g)`` on every parameter with a
        gradient, ``g`` densified (dense optimizers move every row)."""
        changed = False
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            update(i, g.densify() if isinstance(g, RowSparseGrad) else g)
            changed = True
        if changed:
            bump_data_version()

    def _chunks(self, i: int, rows, g, tables, update) -> None:
        """``update(positions, g chunk, table chunks, scratch G, scratch T)``
        per cache-sized chunk of ``rows`` (ids or ``slice(None)``), in row
        blocks over one worker per core (:func:`~repro.tensor.parallel.
        fan_out`), each block with a workspace of its own.  Index-array
        chunks are gathered before and scattered back after the in-place
        update (ids are unique, so blocks write disjoint rows);
        ``slice(None)`` chunks are views.  ``g``: an array or scalar 0.0.
        """
        dense, table, spare = isinstance(rows, slice), tables[0], self._work[i]
        n = len(table) if dense else len(rows)
        size = max(1, min(len(table), _CHUNK_BYTES // (table[:1].nbytes or 1)))

        def block(lo: int, hi: int) -> None:
            try:  # one atomic pop: another block may take the last one
                work = spare.pop()
            except IndexError:
                work = np.empty((5, size) + table.shape[1:], table.dtype)
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
                           bufs, work[3, :width], work[4, :width])
                    if not dense:
                        for t, buf in zip(tables, bufs):
                            t[rows[at]] = buf
            finally:
                spare.append(work)

        parallel.fan_out(n, block, _MIN_ROWS)


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = _zero_state(self.params)

    def step(self) -> None:
        self._every_row(lambda i, g: self._rows(i, slice(None), g))

    def _rows(self, i: int, rows, g) -> None:
        """The SGD update of ``rows`` (ids or ``slice(None)``), in place."""
        tables = [self.params[i].data] + (
            [self._velocity[i]] if self.momentum else [])

        def update(at, gc, bufs, G, T):
            if self.weight_decay:
                np.multiply(bufs[0], self.weight_decay, out=T)
                gc = np.add(gc, T, out=G)
            if self.momentum:
                bufs[1] *= self.momentum
                bufs[1] += gc
                gc = bufs[1]
            bufs[0] -= np.multiply(gc, self.lr, out=T)

        self._chunks(i, rows, g, tables, update)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction.

    Matches the PyTorch defaults the paper uses: ``betas=(0.9, 0.999)``,
    ``eps=1e-8``.  ``weight_decay`` adds an L2 term to the gradient
    (classic Adam-L2, as in ``torch.optim.Adam``).
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = _zero_state(self.params)
        self._v = _zero_state(self.params)

    def step(self) -> None:
        self._t += 1
        # Python floats: numpy's power ufunc rounds some steps' powers
        # differently from libm's pow (e.g. 0.999 ** 7).
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        self._every_row(
            lambda i, g: self._rows(i, slice(None), g, bias1, bias2))

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


class SparseOptimizer(Optimizer):
    """Row selection and ``exact`` replay of the row-sparse optimizers.

    Mixed in ahead of the dense optimizer whose update rule it drives
    (``SparseAdam(SparseOptimizer, Adam)``).  Subclasses implement
    :meth:`_apply`, the one update: of a touched row subset, of the
    whole table (``rows = slice(None)``, for parameters whose gradient
    arrived dense — auxiliary weights, graph backbones whose gradients
    densified at propagation) and, with a zero gradient, of ``exact``
    mode's vectorized catch-up steps; and ``_idle_rows``, the rows whose
    replay would be a no-op.
    """

    MODES = ("lazy", "exact")

    def _init_mode(self, mode: str) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        #: per-parameter step clock of each row's last applied update
        #: (exact mode only).
        self._last = ([np.zeros(len(p.data), dtype=np.int64)
                       for p in self.params] if mode == "exact" else None)

    # ------------------------------------------------------------------
    def step(self) -> None:
        self._t += 1
        exact = self.mode == "exact"
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
            self._apply(i, rows, g, self._t)
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

    # ------------------------------------------------------------------
    def _catch_up(self, i: int, rows: np.ndarray, upto: int) -> None:
        """Replay the zero-grad steps ``last[row]+1 .. upto`` per row."""
        last = self._last[i][rows]
        gaps = upto - last
        pending = gaps > 0
        if not pending.any():
            return
        rows, last, gaps = rows[pending], last[pending], gaps[pending]
        idle = self._idle_rows(i, rows)
        if self.weight_decay == 0.0 and idle.any():
            # Zero moments + zero grad + zero decay: the replayed steps
            # are exact no-ops, so the clock can jump for free.  This is
            # what keeps exact-mode cost amortized — a row's first touch
            # does not pay for the whole warm-up history.
            keep = ~idle
            rows, last, gaps = rows[keep], last[keep], gaps[keep]
            if len(rows) == 0:
                return  # callers advance the per-row clock themselves
        max_gap = int(gaps.max())
        for j in range(1, max_gap + 1):
            active = gaps >= j
            self._apply(i, rows[active], 0.0, last[active] + j)
        # callers update self._last afterwards


class SparseSGD(SparseOptimizer, SGD):
    """SGD over row-sparse gradients.

    ``lazy``: touched rows get the classical momentum/decay update;
    untouched rows keep their velocity frozen (and never move).  With
    ``momentum=0`` and ``weight_decay=0`` lazy is already identical to
    dense SGD.  ``exact``: skipped velocity-decay and weight-decay
    steps are replayed on touch, matching dense SGD exactly.
    """

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0, mode: str = "lazy"):
        SGD.__init__(self, params, lr, momentum, weight_decay)
        self._init_mode(mode)

    def _apply(self, i: int, rows, g, step_nums) -> None:
        self._rows(i, rows, g)

    def _idle_rows(self, i, rows) -> np.ndarray:
        if self.momentum == 0.0:
            return np.ones(len(rows), dtype=bool)
        v = self._velocity[i][rows]
        return ~v.reshape(len(rows), -1).any(axis=1)


class SparseAdam(SparseOptimizer, Adam):
    """Adam over row-sparse gradients (``torch.optim.SparseAdam`` family).

    ``lazy``: exactly PyTorch's ``SparseAdam`` update — only touched
    rows have their moments decayed and bias-corrected against the
    *global* step count; ``weight_decay`` is lazy regularization
    (applied to a row only when it is touched).  ``exact``: per-row
    step clocks replay the skipped zero-gradient updates (including the
    per-step ``weight_decay`` pull) so the trajectory is numerically
    equivalent to dense :class:`Adam`; call :meth:`flush` (the trainer
    does) before reading parameters.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 mode: str = "lazy"):
        Adam.__init__(self, params, lr, betas, eps, weight_decay)
        self._init_mode(mode)

    def _apply(self, i: int, rows, g, step_nums) -> None:
        """One Adam update of ``rows`` at (per-row) step numbers."""
        steps = np.asarray(step_nums, dtype=np.float64)
        if steps.ndim:  # per-row bias correction during exact replay
            steps = steps.reshape((-1,) + (1,) * (self.params[i].ndim - 1))
        self._rows(i, rows, g, 1.0 - self.beta1 ** steps,
                   1.0 - self.beta2 ** steps)

    def _idle_rows(self, i, rows) -> np.ndarray:
        flat_m = self._m[i][rows].reshape(len(rows), -1)
        flat_v = self._v[i][rows].reshape(len(rows), -1)
        return ~(flat_m.any(axis=1) | flat_v.any(axis=1))
