"""Row-block fan-out over one worker per core, and the CSR product on it.

:func:`fan_out` splits ``[0, n)`` into contiguous row blocks, one per
core, runs the first on the calling thread and waits for the rest.  The
kernels routed through it (the optimizer row updates, the fused
scoring node's products, propagation, evaluation chunks) do no
arithmetic across rows, so every output row is computed by one thread
in its serial order: the result is the same bits at any core count.

The threads live in a :func:`scope` (a training step, an evaluation),
shared by every fan-out its thread makes inside the block and joined
when it exits, so no thread outlives the call that made it.  A fan-out
outside any scope, on one core, or from inside a running block runs
inline: one core makes no pool and nested use cannot deadlock.  Workers
build no autograd node (the grad-mode flag is process-global).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse._sputils import upcast_char

__all__ = ["workers", "scope", "fan_out", "csr_matmul", "csr_rows_into"]


class _ThreadState(threading.local):
    #: the pool of the thread's open scope
    pool: ThreadPoolExecutor | None = None
    #: set on pool workers and on a caller running its own block
    inline = False


_local = _ThreadState()

#: Fewest multiply-adds per block of :func:`csr_matmul`: below it the
#: hand-off to a worker costs what the split saves (16 nnz per row, 64
#: columns, 2 cores: 512 rows 78 us in one block vs 107 in two, 1024 rows
#: 151 vs 145, 2048 rows 307 vs 183).
_MIN_BLOCK_MACS = 1 << 20


def workers() -> int:
    """Worker count of a fan-out: one per core."""
    return os.cpu_count() or 1


def _mark_inline() -> None:
    _local.inline = True


@contextmanager
def scope(name: str = "parallel"):
    """Share one pool, threads named ``name``, among this thread's
    fan-outs inside the block; its threads are joined on exit."""
    if workers() == 1 or _local.inline or _local.pool is not None:
        yield
        return
    _local.pool = ThreadPoolExecutor(workers() - 1, thread_name_prefix=name,
                                     initializer=_mark_inline)
    try:
        yield
    finally:
        pool, _local.pool = _local.pool, None
        pool.shutdown(wait=True)


def fan_out(n: int, fn, min_rows: int = 1) -> None:
    """``fn(lo, hi)`` over contiguous blocks covering ``[0, n)``.

    Inside a :func:`scope`: at most one block per core, none shorter
    than ``min_rows`` (unless ``n`` is), the first on the calling thread;
    otherwise ``fn(0, n)``.  Blocks must write disjoint outputs.  The
    first exception raised is re-raised once every block has finished.
    """
    pool = _local.pool
    k = min(workers(), n // max(1, min_rows))
    if pool is None or k <= 1 or _local.inline:
        fn(0, n)
        return
    bounds = [n * j // k for j in range(k + 1)]
    futures = [pool.submit(fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    _local.inline = True
    try:
        fn(0, bounds[1])
    finally:
        _local.inline = False
        wait(futures)
    for future in futures:
        future.result()


def csr_matmul(csr, x: np.ndarray) -> np.ndarray:
    """``csr @ x`` for a dense 2-D ``x``, bit for bit, split by row blocks.

    Each block runs :func:`csr_rows_into` (scipy's own ``csr_matvecs``
    kernel, which releases the GIL) straight into its slice of the
    output, so no block makes a temporary and every row adds its entries
    in the same order.  Other operands go through ``@``: scipy sends a
    vector or one column to another kernel, and a subclass may redefine
    ``@``.
    """
    if (type(csr) not in (sp.csr_matrix, sp.csr_array)
            or type(x) is not np.ndarray or x.ndim != 2 or x.shape[1] < 2):
        return csr @ x
    n_rows, n_cols = csr.shape
    if x.shape[0] != n_cols:
        raise ValueError(f"shape mismatch: {csr.shape} @ {x.shape}")
    n_vecs = x.shape[1]
    out = np.zeros((n_rows, n_vecs),
                   dtype=upcast_char(csr.dtype.char, x.dtype.char))
    # The kernel would cast each block's operands to the output type
    # again; cast (exactly) once, here.
    csr = csr.astype(out.dtype, copy=False)
    x = np.ascontiguousarray(x, dtype=out.dtype)
    fan_out(n_rows, lambda lo, hi: csr_rows_into(csr, x, lo, hi, out[lo:hi]),
            _MIN_BLOCK_MACS * n_rows // max(1, csr.nnz * n_vecs))
    return out


def csr_rows_into(csr, x: np.ndarray, lo: int, hi: int,
                  out: np.ndarray) -> None:
    """Add rows ``lo:hi`` of ``csr @ x`` into ``out``, in place.

    scipy's ``csr_matvecs`` kernel: each row adds its entries in order,
    as ``csr @ x`` does, so a caller can split a product into blocks and
    finish each block while it is in cache.  ``csr``, ``x`` and the
    ``(hi - lo, x.shape[1])`` ``out`` share one dtype; ``x`` and ``out``
    are C-contiguous (so no operand is copied).
    """
    if not (csr.dtype == x.dtype == out.dtype and x.flags.c_contiguous
            and out.flags.c_contiguous and out.shape == (hi - lo, x.shape[1])):
        raise ValueError(f"csr_rows_into needs one dtype and C-contiguous "
                         f"operands, got {csr.dtype} @ {x.dtype} "
                         f"{x.shape} into {out.dtype} {out.shape}")
    _sparsetools.csr_matvecs(hi - lo, csr.shape[1], x.shape[1],
                             csr.indptr[lo:hi + 1], csr.indices, csr.data,
                             x.ravel(), out.ravel())
