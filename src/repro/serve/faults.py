"""Deterministic, seeded fault injection for the serving stack.

Production traffic means failures: a shard whose BLAS call stalls, a
worker that dies mid-batch, a snapshot directory torn by a crashed
exporter.  This module is the **chaos harness** that lets the repo test
and benchmark those failure domains *reproducibly*:

* :class:`FaultPlan` — the schedule.  Every injection decision is a
  **pure function of** ``(seed, point, key, spec index)``: the plan
  hashes the triple into uniform draws and compares them against the
  configured rates, so two runs with the same seed produce exactly the
  same fault schedule regardless of thread interleaving — there is no
  shared RNG stream whose consumption order could differ between runs.
  Fired decisions are recorded in a thread-safe event log;
  :meth:`FaultPlan.events` returns a canonically sorted tuple, so
  "same seed ⇒ identical schedule" is a one-line assertion.
* :class:`FaultSpec` — one fault at one injection point: a latency
  spike (``kind="latency"``, sleeps ``latency_ms``) or an exception
  (``kind="error"``, raises :class:`InjectedFault`).
* Wrappers — :class:`FaultyShardIndex` (per-shard ``partial_topk``,
  the router's unit of fan-out) and :class:`FaultyService`
  (request-level ``recommend``).  Each numbers its invocations under
  a lock so a synchronous request stream keys the plan identically run
  over run.
* :func:`corrupt_array_file` — deterministic bit damage for snapshot
  IO tests: flips bytes in an ``.npy`` payload (header left intact) so
  ``load_snapshot(verify=True)`` must fail loudly.
* :class:`ManualClock` — a hand-advanced monotonic clock accepted by
  :class:`~repro.serve.resilience.CircuitBreaker`, so state-transition
  tests never sleep.

The resilience machinery this harness exercises — deadlines, retries,
hedging, circuit breakers, degraded results — lives in
:mod:`repro.serve.resilience` and :mod:`repro.serve.router`; the full
contract is documented in ``docs/robustness.md`` and benchmarked by
``repro bench faults`` (``BENCH_faults.json``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import threading
import time

import numpy as np

__all__ = ["InjectedFault", "FaultSpec", "FaultEvent", "FaultPlan",
           "FaultyShardIndex", "FaultyService",
           "corrupt_array_file", "ManualClock"]

#: fault kinds a :class:`FaultSpec` may declare
FAULT_KINDS = ("latency", "error")


class InjectedFault(RuntimeError):
    """Raised by an ``error`` fault — the stand-in for a crashing
    dependency.  Deliberately a plain ``RuntimeError`` subclass so the
    serving stack's generic error handling (not fault-aware code) has
    to absorb it."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault family at one injection point.

    Parameters
    ----------
    kind:
        ``"latency"`` (sleep ``latency_ms`` before the call proceeds)
        or ``"error"`` (raise :class:`InjectedFault` instead of calling
        through).
    rate:
        Probability in ``[0, 1]`` that the fault fires for a given
        ``(point, key)``.
    latency_ms:
        Injected sleep for ``latency`` faults (ignored otherwise).
    """

    kind: str
    rate: float
    latency_ms: float = 50.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"available: {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, "
                             f"got {self.latency_ms}")


@dataclasses.dataclass(frozen=True, order=True)
class FaultEvent:
    """One fired fault decision (orderable for canonical comparison)."""

    point: str
    key: int
    kind: str
    magnitude_ms: float


def _draw(seed: int, point: str, key: int, index: int) -> float:
    """Uniform float in ``[0, 1)`` from a stable hash of the identifiers.

    ``sha256`` rather than Python's randomized ``hash`` so the draw is
    stable across processes and sessions — the property the
    bit-for-bit replay contract rests on.
    """
    payload = f"{seed}|{point}|{key}|{index}".encode()
    digest = hashlib.sha256(payload).digest()
    (value,) = struct.unpack("<Q", digest[:8])
    return value / float(1 << 64)


class FaultPlan:
    """A seeded, replayable fault schedule over named injection points.

    Parameters
    ----------
    seed:
        Integer seed; two plans with equal seed and specs make
        identical decisions for every ``(point, key)``.
    specs:
        ``{point: FaultSpec | [FaultSpec, ...]}``.  A point name may be
        a concrete injection site (``"shard:1"``) or a prefix-matched
        family: a spec registered under ``"shard"`` also fires at
        ``"shard:0"``, ``"shard:1"``, … (longest exact match first).

    The decision for each ``(point, key, spec)`` is a pure hash —
    **stateless** — so concurrent callers cannot perturb each other's
    schedules; the event log only *records* what fired.
    """

    def __init__(self, seed: int = 0,
                 specs: dict[str, FaultSpec | list[FaultSpec]] | None = None):
        self.seed = int(seed)
        self.specs: dict[str, tuple[FaultSpec, ...]] = {}
        for point, spec in (specs or {}).items():
            if isinstance(spec, FaultSpec):
                spec = [spec]
            self.specs[point] = tuple(spec)
        self._events: list[FaultEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _specs_for(self, point: str) -> tuple[FaultSpec, ...]:
        """Specs registered for ``point`` (exact, else ``prefix:``)."""
        if point in self.specs:
            return self.specs[point]
        head = point.split(":", 1)[0]
        return self.specs.get(head, ())

    def decide(self, point: str, key: int) -> list[FaultEvent]:
        """The faults that fire at ``(point, key)`` — pure, no recording."""
        fired = []
        for index, spec in enumerate(self._specs_for(point)):
            if _draw(self.seed, point, int(key), index) < spec.rate:
                magnitude = spec.latency_ms if spec.kind == "latency" else 0.0
                fired.append(FaultEvent(point=point, key=int(key),
                                        kind=spec.kind,
                                        magnitude_ms=magnitude))
        return fired

    def fire(self, point: str, key: int, *,
             sleep=time.sleep) -> list[FaultEvent]:
        """Apply the schedule at ``(point, key)``: sleep, then maybe raise.

        Latency faults sleep first (a slow *and* failing dependency is
        slow before it fails), then the first ``error`` fault raises
        :class:`InjectedFault`.  Returns the fired events.
        """
        fired = self.decide(point, key)
        if fired:
            with self._lock:
                self._events.extend(fired)
        for event in fired:
            if event.kind == "latency" and event.magnitude_ms > 0:
                sleep(event.magnitude_ms / 1e3)
        for event in fired:
            if event.kind == "error":
                raise InjectedFault(
                    f"injected fault at {point!r} (key={key}, "
                    f"seed={self.seed})")
        return fired

    # ------------------------------------------------------------------
    def events(self) -> tuple[FaultEvent, ...]:
        """Canonically sorted tuple of every fired event.

        Sorted — not insertion-ordered — because concurrent callers may
        append in any interleaving; the *set* of fired events is what
        the pure-hash schedule makes deterministic.
        """
        with self._lock:
            return tuple(sorted(self._events))

    def reset_events(self) -> None:
        """Clear the event log (the schedule itself is stateless)."""
        with self._lock:
            self._events.clear()

    def __repr__(self) -> str:
        points = {point: [s.kind for s in specs]
                  for point, specs in self.specs.items()}
        return f"FaultPlan(seed={self.seed}, points={points})"


class _CountingWrapper:
    """Shared plumbing: per-wrapper invocation counter + delegation.

    Each wrapped call gets the next counter value as its plan key, taken
    under a lock, so a *serialized* call stream (the deterministic soak)
    keys the plan identically run over run.  Unknown attributes delegate
    to the wrapped object, so wrappers stay drop-in for protocol users.
    """

    def __init__(self, wrapped, plan: FaultPlan, point: str):
        self._wrapped = wrapped
        self._plan = plan
        self._point = point
        self._calls = 0
        self._count_lock = threading.Lock()

    @property
    def calls(self) -> int:
        """Invocations observed so far (post-breaker, pre-fault)."""
        return self._calls

    def _next_key(self) -> int:
        with self._count_lock:
            key = self._calls
            self._calls += 1
        return key

    def __getattr__(self, name):
        return getattr(self._wrapped, name)


class FaultyShardIndex(_CountingWrapper):
    """Wrap one per-shard index; faults fire on every ``partial_topk``.

    Drop-in for :class:`~repro.serve.shard.ItemShardIndex` — install
    over ``router.shard_indexes[i]`` to make shard ``i`` flaky.  The
    plan key is this wrapper's own invocation counter, so retries and
    hedge attempts draw **fresh** decisions (attempt ``n`` is key
    ``n``), which is exactly how a real straggler retry behaves.
    """

    def partial_topk(self, *args, **kwargs):
        """Roll the plan for this invocation, then delegate."""
        self._plan.fire(self._point, self._next_key())
        return self._wrapped.partial_topk(*args, **kwargs)


class FaultyService(_CountingWrapper):
    """Wrap a :class:`~repro.serve.service.RecommendationService`;
    faults fire on every ``recommend`` call (one key per call)."""

    def recommend(self, *args, **kwargs):
        """Roll the plan for this invocation, then delegate."""
        self._plan.fire(self._point, self._next_key())
        return self._wrapped.recommend(*args, **kwargs)


def corrupt_array_file(path, *, seed: int = 0, flips: int = 8) -> None:
    """Deterministically damage an ``.npy`` file's payload bytes.

    Flips ``flips`` seeded-random payload bytes (the 128-byte header is
    left intact so the file still *parses* — the damage is exactly the
    silent kind only a content-hash ``verify`` can catch).  Used by the
    quarantine tests.
    """
    path_bytes = bytearray(path.read_bytes() if hasattr(path, "read_bytes")
                           else open(path, "rb").read())
    header = 128
    if len(path_bytes) <= header:
        raise ValueError(f"{path} too small to corrupt past its header")
    rng = np.random.default_rng(seed)
    positions = rng.integers(header, len(path_bytes), size=flips)
    for pos in positions:
        path_bytes[int(pos)] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(path_bytes))


class ManualClock:
    """A hand-advanced monotonic clock for deterministic time tests.

    Callable like ``time.monotonic`` — pass as the ``clock`` of a
    :class:`~repro.serve.resilience.CircuitBreaker` and drive state
    transitions with :meth:`advance` instead of sleeping.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward (never backward)."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        with self._lock:
            self._now += seconds
