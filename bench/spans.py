"""The benchmark's own span recorder.

Spans wrap the *public* calls into each layer of ``repro`` from the
outside, so this change edits nothing under ``src/``.  A span is
``[name, start_s, end_s, parent, op_id]``; ``parent`` indexes the span
that caused it (-1 for an op's root) and all spans of one op share its
``op_id``.  Spans stay in memory and are dumped when the run ends.

A span opened on a worker thread with nothing open on that thread (a
shard scored by the router's pool) is parented to the span open on the
main thread, which is the call that fanned it out.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)
_MISSING = object()


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        #: wrappers stay installed for the whole traced pass; ops run
        #: with this off are the untraced control the overhead is
        #: measured against
        self.enabled = False
        self.op_id = -1
        self._main = threading.main_thread()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        thread = threading.current_thread()
        stack = self._stacks[thread.ident]
        if stack:
            parent = stack[-1]
        elif thread is not self._main and self._stacks[self._main.ident]:
            parent = self._stacks[self._main.ident][-1]
        else:
            parent = -1
        record = [name, 0.0, 0.0, parent, self.op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = self.clock()
        try:
            yield
        finally:
            record[END] = self.clock()
            stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, had in reversed(self._patched):
            if had is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, had)
        self._patched.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def per_op_tables(spans) -> tuple[dict, dict]:
    """``(inclusive, self)``: per span name, a list of per-op milliseconds.

    Inclusive is the summed duration of the name's spans inside one op.
    Self time is the duration minus the part of that interval its child
    spans cover.  Where children ran concurrently (shards on the
    router's pool) their self times are scaled by covered wall over
    summed durations, so the self times of one op add up to its wall
    time and a layer's row is its share of what the caller waited for.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    weight = [1.0] * len(spans)
    inclusive = defaultdict(lambda: defaultdict(float))
    own = defaultdict(lambda: defaultdict(float))
    # A parent is recorded before its children, so index order is top-down.
    for index, span in enumerate(spans):
        kids = [spans[c] for c in children[index]]
        busy = _covered([(k[START], k[END]) for k in kids],
                        span[START], span[END])
        summed = sum(k[END] - k[START] for k in kids)
        share = busy / summed if summed > busy > 0.0 else 1.0
        for child in children[index]:
            weight[child] = weight[index] * share
        duration = span[END] - span[START]
        inclusive[span[NAME]][span[OP]] += 1e3 * duration
        own[span[NAME]][span[OP]] += 1e3 * weight[index] * (duration - busy)
    ops = sorted({span[OP] for span in spans})

    def dense(table):
        return {name: [by_op.get(op, 0.0) for op in ops]
                for name, by_op in table.items()}
    return dense(inclusive), dense(own)


def median_of(table: dict, name: str) -> float:
    """Median per-op milliseconds of ``name``; 0.0 if it never ran."""
    values = table.get(name)
    return statistics.median(values) if values else 0.0
