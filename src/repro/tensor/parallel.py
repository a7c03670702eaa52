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

Two rules keep a split worth its threads.  :func:`chunk_bytes`: a block
that shares the cores walks its rows in longer chunks than one that runs
alone, so its workers trade the GIL between fewer numpy calls.
:func:`one_blas_thread`: while the repo's own workers run (a split
fan-out, the router's shard pool), numpy's BLAS is held at one thread,
so the workers and BLAS's threads do not compete for the same cores.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse._sputils import upcast_char

from repro.obs.metrics import get_registry

__all__ = ["workers", "scope", "fan_out", "chunk_bytes", "one_blas_thread",
           "csr_matmul", "csr_rows_into"]


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
#: Bytes per chunk of a block that shares the cores with other workers
#: (:func:`chunk_bytes`).  Every numpy call of a chunk loop releases the
#: GIL and takes it back, and the workers trade it on each call, so a
#: shared block wants fewer, longer calls than a cache-sized chunk gives
#: (``SparseAdam.step``, 100k x 64 tables, 49.6k touched rows, 2 vCPUs,
#: one BLAS thread: 56-60 ms on one worker; on two, 46-48 ms at 128 KiB,
#: 41 at 256 KiB, 37-40 at 512 KiB and 1 MiB, 42-44 at 2 MiB).
_SHARED_CHUNK_BYTES = 512 * 1024


def workers() -> int:
    """Worker count of a fan-out: one per core this process may run on
    (its CPU affinity mask where the platform has one, which a container
    or ``taskset`` narrows; the machine's core count elsewhere)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def chunk_bytes(alone: int) -> int:
    """Bytes per chunk of a chunk loop on the calling thread: ``alone``
    (the kernel's cache-sized chunk) in a block that runs by itself,
    :data:`_SHARED_CHUNK_BYTES` in a block of a split fan-out.

    Chunking a loop over independent rows moves no bit, so the rule
    changes only how many numpy calls a block makes.
    """
    return _SHARED_CHUNK_BYTES if _local.inline else alone


@cache
def _openblas():
    """``(set, get)`` of the thread count of the OpenBLAS bundled with
    numpy's wheel, or ``None`` for any other BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded: same file
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


class _BlasHold:
    #: open holds, and the thread count the first one found
    count = 0
    saved = 1
    lock = threading.Lock()


@contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread inside the block.

    For code that runs the repo's own workers: BLAS threads inside them
    ask for more cores than there are (on 2 vCPUs, evaluation at 9k
    users took 480 ms with two BLAS threads per worker, 275 with one,
    and the 4-shard router 530 against 241).  The setting is
    process-global, so holds are counted and the first one's thread
    count comes back when the last ends; serial code outside any hold
    keeps BLAS's own threading.  A BLAS this cannot drive is left alone
    and counted (``tensor.parallel.blas_unmanaged``).
    Only the thread count changes: OpenBLAS splits a product over its
    output, never over the terms of one output element.
    """
    blas = _openblas()
    if blas is None:
        get_registry().counter(
            "tensor.parallel.blas_unmanaged",
            "fan-outs that ran with BLAS threading left as it was").inc()
        yield
        return
    set_threads, get_threads = blas
    with _BlasHold.lock:
        if _BlasHold.count == 0:
            _BlasHold.saved = get_threads()
            set_threads(1)
        _BlasHold.count += 1
    try:
        yield
    finally:
        with _BlasHold.lock:
            _BlasHold.count -= 1
            if _BlasHold.count == 0:
                set_threads(_BlasHold.saved)


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
    A split runs under :func:`one_blas_thread`.
    """
    pool = _local.pool
    k = min(workers(), n // max(1, min_rows))
    if pool is None or k <= 1 or _local.inline:
        fn(0, n)
        return
    bounds = [n * j // k for j in range(k + 1)]
    with one_blas_thread():
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
