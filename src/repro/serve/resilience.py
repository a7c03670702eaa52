"""Resilience primitives for the serving stack: breakers, budgets, modes.

The scatter-gather router (:mod:`repro.serve.router`) is fail-stop by
default: one slow or crashing shard call takes the whole request with
it.  This module holds the pieces that turn shard failures into bounded
latency and *explicit* partial results instead:

* :class:`ResilienceConfig` — the per-shard failure policy: a deadline
  budget per shard call, jittered retry/backoff inside that budget,
  optional hedged backup attempts for stragglers, a circuit breaker per
  shard, and the degraded-result mode (annotate vs. strict).
* :class:`CircuitBreaker` — classic closed → open → half-open breaker
  with a pluggable monotonic clock (tests drive transitions with
  :class:`~repro.serve.faults.ManualClock` instead of sleeping).  State
  changes and rejections are counted in the metrics registry.
* :class:`PartialResultError` — raised in ``strict`` mode when a shard
  stays down: the caller asked for exact top-K or nothing, and the
  router will not silently return a ranking that ignored part of the
  catalogue.

Degraded-result semantics (the non-strict default) are carried on
:class:`~repro.serve.index.TopKResult` (``coverage`` < 1,
``failed_shards``) and surfaced per user as
``Recommendation.degraded`` — and degraded lists are **never cached**,
so one bad minute cannot poison the LRU after the shard recovers.  The
full contract is in ``docs/robustness.md``.
"""

from __future__ import annotations

import dataclasses
import time

from repro.obs.metrics import get_registry

__all__ = ["PartialResultError", "ShardCallError", "BreakerOpenError",
           "BreakerConfig", "CircuitBreaker", "ResilienceConfig"]


class PartialResultError(RuntimeError):
    """Strict mode's answer to a dead shard: fail the request loudly
    rather than return a top-K that ignored part of the catalogue."""

    def __init__(self, message: str, *, coverage: float = 0.0,
                 failed_shards: tuple = ()):
        super().__init__(message)
        self.coverage = coverage
        self.failed_shards = failed_shards


class ShardCallError(RuntimeError):
    """One shard exhausted its deadline budget / retries; carries the
    last underlying error (``__cause__``) when there was one."""


class BreakerOpenError(ShardCallError):
    """The shard's circuit breaker is open — the call was never made."""


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Knobs of one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures trip the breaker open;
    after ``reset_timeout_s`` it admits probe calls (half-open), and
    ``success_threshold`` consecutive probe successes close it again.
    A failure while half-open re-opens immediately (and restarts the
    reset timer).
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0
    success_threshold: int = 1
    #: concurrent probe calls admitted while half-open
    half_open_max: int = 1

    def __post_init__(self):
        if self.failure_threshold <= 0:
            raise ValueError(f"failure_threshold must be positive, "
                             f"got {self.failure_threshold}")
        if self.reset_timeout_s <= 0:
            raise ValueError(f"reset_timeout_s must be positive, "
                             f"got {self.reset_timeout_s}")
        if self.success_threshold <= 0:
            raise ValueError(f"success_threshold must be positive, "
                             f"got {self.success_threshold}")
        if self.half_open_max <= 0:
            raise ValueError(f"half_open_max must be positive, "
                             f"got {self.half_open_max}")


#: breaker state -> value of the ``serve.breaker.state`` gauge
_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


class CircuitBreaker:
    """Closed → open → half-open circuit breaker around one dependency.

    Thread-safe; all transitions happen under one lock.  ``clock`` is
    any ``() -> float`` monotonic source (defaults to
    ``time.monotonic``) — tests pass a
    :class:`~repro.serve.faults.ManualClock` and advance it by hand.

    Protocol: call :meth:`allow` before the dependency call; on
    ``False`` skip the call (it *would have been* rejected — the open
    breaker is the whole point).  Afterwards report
    :meth:`record_success` / :meth:`record_failure`.
    """

    def __init__(self, config: BreakerConfig | None = None, *,
                 name: str = "", clock=time.monotonic):
        import threading
        self.config = config or BreakerConfig()
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        registry = get_registry()
        labels = {"instance": registry.next_instance("serve.breaker")}
        if name:
            labels["target"] = name
        self._counter_opened = registry.counter(
            "serve.breaker.opened", "breaker transitions into open",
            labels=labels)
        self._counter_closed = registry.counter(
            "serve.breaker.closed", "breaker transitions back to closed",
            labels=labels)
        self._counter_rejected = registry.counter(
            "serve.breaker.rejected", "calls refused while open",
            labels=labels)
        self._gauge_state = registry.gauge(
            "serve.breaker.state", "0=closed 1=half-open 2=open",
            labels=labels)
        self._gauge_state.set(0.0)

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, applying the open → half-open timeout."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Lock held: open breakers become half-open after the timeout."""
        if (self._state == "open"
                and self._clock() - self._opened_at
                >= self.config.reset_timeout_s):
            self._state = "half-open"
            self._consecutive_successes = 0
            self._half_open_inflight = 0
            self._gauge_state.set(_STATE_VALUES[self._state])

    def allow(self) -> bool:
        """Whether the next dependency call may proceed."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half-open":
                if self._half_open_inflight < self.config.half_open_max:
                    self._half_open_inflight += 1
                    return True
                self._counter_rejected.inc()
                return False
            self._counter_rejected.inc()
            return False

    def record_success(self) -> None:
        """Report a successful dependency call."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == "half-open":
                self._half_open_inflight = max(
                    0, self._half_open_inflight - 1)
                self._consecutive_successes += 1
                if (self._consecutive_successes
                        >= self.config.success_threshold):
                    self._state = "closed"
                    self._counter_closed.inc()
                    self._gauge_state.set(_STATE_VALUES[self._state])

    def record_failure(self) -> None:
        """Report a failed dependency call (error or deadline miss)."""
        with self._lock:
            self._consecutive_successes = 0
            if self._state == "half-open":
                # A failed probe re-opens immediately and restarts the
                # reset timer — no threshold while probing.
                self._half_open_inflight = max(
                    0, self._half_open_inflight - 1)
                self._trip()
                return
            if self._state == "closed":
                self._consecutive_failures += 1
                if (self._consecutive_failures
                        >= self.config.failure_threshold):
                    self._trip()

    def _trip(self) -> None:
        """Lock held: transition into open."""
        self._state = "open"
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._counter_opened.inc()
        self._gauge_state.set(_STATE_VALUES[self._state])

    def __repr__(self) -> str:
        return (f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
                f"failure_threshold={self.config.failure_threshold}, "
                f"reset_timeout_s={self.config.reset_timeout_s})")


# ----------------------------------------------------------------------
# Router failure policy
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Per-shard failure policy of the scatter-gather router.

    With a config installed the router runs every shard call on a
    worker thread under a **deadline budget**: ``deadline_ms`` covers
    *all* attempts at one shard for one chunk (retries eat the same
    budget — a failing shard cannot stall the request ``retries`` full
    deadlines).  Failed attempts retry after ``backoff_ms`` with
    deterministic seeded jitter; slow attempts are optionally
    **hedged** (a backup attempt after ``hedge_ms`` — first success
    wins); and a per-shard :class:`CircuitBreaker` short-circuits a
    shard that keeps failing, so its deadline budget stops being paid
    at all.

    When a shard still fails: ``strict=False`` (default) returns a
    **degraded** result — merged from the surviving shards, coverage
    and failed-shard list attached, never cached; ``strict=True``
    raises :class:`PartialResultError` instead.
    """

    #: total per-shard deadline budget per routed chunk, milliseconds
    deadline_ms: float = 100.0
    #: additional attempts after the first (0 = no retry)
    retries: int = 1
    #: base backoff between attempts, milliseconds
    backoff_ms: float = 2.0
    #: uniform jitter fraction applied to the backoff (0.5 -> ±50%)
    backoff_jitter: float = 0.5
    #: hedge trigger: back-up attempt after this many ms without a
    #: result (None disables hedging)
    hedge_ms: float | None = None
    #: per-shard circuit breaker (None disables breakers)
    breaker: BreakerConfig | None = None
    #: strict mode raises PartialResultError instead of degrading
    strict: bool = False
    #: seed of the deterministic backoff-jitter stream
    seed: int = 0

    def __post_init__(self):
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, "
                             f"got {self.deadline_ms}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_ms < 0:
            raise ValueError(f"backoff_ms must be >= 0, "
                             f"got {self.backoff_ms}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must lie in [0, 1], "
                             f"got {self.backoff_jitter}")
        if self.hedge_ms is not None and self.hedge_ms <= 0:
            raise ValueError(f"hedge_ms must be positive, "
                             f"got {self.hedge_ms}")
