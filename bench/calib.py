"""Calibration kernel and the drift-calibrated estimator.

Machine-wide drift on the reference box is multiplicative: the same
code runs 6-10 % faster or slower from one process to the next, and even
the per-run *minimum* moves with it.  So no timing in this benchmark is
trusted on its own.  A fixed kernel of pure numpy and Python is timed
interleaved with the ops, and every reported time is the ratio of the
op median to the kernel median, scaled by :data:`CAL_REF_MS` so that
values read as milliseconds on the reference box (unit ``cal-ms``).

This module imports nothing from ``repro``: the control must not move
when the program under test changes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Milliseconds one calibration pass takes on the reference box.  A
#: constant, not a measurement: it only fixes the scale of ``cal-ms``.
CAL_REF_MS = 60.0


class Calibrator:
    """A fixed ~60 ms mix of the work the program's hot paths do.

    One GEMM with the serving shape, a partition of its result, a
    fancy-index gather with a reduce, and a Python loop: BLAS,
    memory-bound numpy and the interpreter each weigh in, as they do in
    the ops being calibrated.  Every buffer is allocated once, here.  A
    51 MB temporary per pass would make the control measure page faults
    and huge-page availability, which flip between two modes inside one
    run once the program under test has churned the heap; the control
    has to track CPU speed and nothing the program can change.
    ``scale`` shrinks every dimension for the ``--tiny`` self-tests.
    """

    def __init__(self, scale: float = 1.0):
        rng = np.random.default_rng(20240917)
        cols = max(64, int(25_000 * scale))
        rows = max(256, int(60_000 * scale))
        self._a = rng.standard_normal((256, 64))
        self._b = rng.standard_normal((64, cols))
        self._scores = np.empty((256, cols))
        self._table = rng.standard_normal((rows, 16))
        self._index = rng.integers(0, rows, size=3 * rows)
        self._gathered = np.empty((3 * rows, 16))
        self._loops = 3 * rows

    def run_once(self) -> float:
        """One pass of the kernel; returns a value so nothing is elided."""
        np.matmul(self._a, self._b, out=self._scores)
        self._scores.partition(20, axis=1)
        np.take(self._table, self._index, axis=0, out=self._gathered)
        acc = 0
        for i in range(self._loops):
            acc += i ^ (i >> 3)
        return float(self._scores[0, 0]) + float(self._gathered.sum()) + acc

    def sample_ms(self, clock=time.perf_counter) -> float:
        """Time one pass, after one untimed pass that rewarms the caches.

        A sample is valid only while no thread of the program under test
        is runnable: an idle ``ServingRuntime`` poller alone inflates it
        by 30-70 %, which would reward or punish changes to the poller
        through the denominator.  Callers stop such threads first.
        """
        self.run_once()
        start = clock()
        self.run_once()
        return 1e3 * (clock() - start)


def calibrated_ms(raw_ms: float, calib_ms) -> float:
    """Express ``raw_ms`` in ``cal-ms``: relative to the median kernel pass."""
    return CAL_REF_MS * raw_ms / statistics.median(calib_ms)
