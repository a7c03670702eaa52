"""The process environments the two kinds of pass run under.

All of it must be in place before the interpreter loads numpy or
makes its first large allocation, so :func:`exec_pinned` re-executes
the interpreter when they are not.

Both kinds of pass:

* One BLAS thread: the ops and the calibration kernel would otherwise
  compete for the two cores differently from run to run.
* One malloc arena, a fixed hash seed, no transparent huge pages inside
  numpy buffers and no address-space randomization: set order (by hash
  or by ``id``) decides the order of some allocations, and which 2 MB
  ranges the kernel could back with a huge page differs from run to run.

Timed passes (``PINNED_ENV``) keep freed memory in the process: no
``mmap`` for large blocks, no heap trimming.  On the reference box, a
microVM, a page returned to the kernel loses its host backing within
seconds and costs ~4.5 ms/MB to touch again, 20x a normal page fault.
Which buffers pay that depends on how long they sat free, so a 74 MB
gradient buffer alone moved a train step from 0.28 s to 1.2 s.  With
the heap retained, steady-state ops fault no pages at all.

The price: the resident set of such a process is the high-water mark of
a heap that never shrinks, and whether the next 74 MB buffer still fits
a free chunk depends on every small allocation before it.  On
``pipeline-9k`` that moved ``ru_maxrss`` by 10 % between runs that
differed only in which two users were checked.  So memory is measured
in a pass of its own (``MEMORY_ENV``): glibc's stock 128 KiB ``mmap``
threshold, fixed so that it does not adapt, under which every large
buffer goes back to the kernel when it is freed and ``ru_maxrss``
follows the live set.  That pass is slow and is never timed.
"""

from __future__ import annotations

import ctypes
import os
import sys

_BOTH = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
#: timed passes: freed memory stays in the process
PINNED_ENV = {**_BOTH, "MALLOC_MMAP_MAX_": "0",
              "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
#: the memory pass: large blocks are mapped and returned one by one
MEMORY_ENV = {**_BOTH, "MALLOC_MMAP_THRESHOLD_": str(128 << 10)}
_KEYS = set(PINNED_ENV) | set(MEMORY_ENV)


def pinned_environ(pins: dict = PINNED_ENV) -> dict:
    """A copy of this process's environment with exactly ``pins`` applied."""
    return {**{key: value for key, value in os.environ.items()
               if key not in _KEYS}, **pins}


def is_pinned(pins: dict = PINNED_ENV) -> bool:
    """Whether ``pins`` are set and no pin of the other kind of pass is."""
    return all(os.environ.get(key) == pins.get(key) for key in _KEYS)


#: ``personality(2)`` flag that switches address-space randomization off
ADDR_NO_RANDOMIZE = 0x0040000
_QUERY = 0xFFFFFFFF


def aslr_disabled() -> bool:
    """Whether this process runs without address-space randomization."""
    try:
        persona = ctypes.CDLL(None, use_errno=True).personality(_QUERY)
    except (OSError, AttributeError):
        return False
    return persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)


def exec_pinned(pins: dict = PINNED_ENV) -> None:
    """Re-execute this script under ``pins``, unless they are in place.

    Randomization is switched off on the way, where the kernel allows it
    (a seccomp filter may not); the fingerprint records the outcome.
    """
    if is_pinned(pins):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(_QUERY)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass
    os.execve(sys.executable, [sys.executable, *sys.argv],
              pinned_environ(pins))
