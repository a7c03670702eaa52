"""Resilience primitives for the serving stack: breakers and budgets.

The scatter-gather router (:mod:`repro.serve.router`) is fail-stop by
default: one slow or crashing shard call takes the whole request with
it.  This module holds the pieces that turn shard failures into bounded
latency and *explicit* partial results instead:

* :class:`ResilienceConfig` — the per-shard failure policy: a deadline
  budget per shard call, jittered retry/backoff inside that budget,
  optional hedged backup attempts for stragglers, and a circuit breaker
  per shard.
* :class:`CircuitBreaker` — classic closed → open → half-open breaker
  with a pluggable monotonic clock (tests drive transitions with
  :class:`~repro.serve.faults.ManualClock` instead of sleeping).  State
  changes and rejections are counted in the metrics registry.

A shard that stays down yields a degraded result, carried on
:class:`~repro.serve.index.TopKResult` (``coverage`` < 1,
``failed_shards``) and surfaced per user as
``Recommendation.degraded`` — and degraded lists are **never cached**,
so one bad minute cannot poison the LRU after the shard recovers.  The
full contract is in ``docs/robustness.md``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time

from repro.obs.metrics import get_registry

__all__ = ["ShardCallError", "BreakerOpenError", "BreakerConfig",
           "CircuitBreaker", "ResilienceConfig"]

#: base backoff between a shard's attempts, milliseconds
BACKOFF_MS = 2.0
#: uniform jitter fraction applied to the backoff (0.5 -> ±50%)
BACKOFF_JITTER = 0.5


def require_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a
    positive finite number (NaN and infinity fail)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, "
                         f"got {value}")


def require_int(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an
    integer and not a bool: a count such as ``retries=1.5`` would
    otherwise construct and fail later, in ``range()``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
    after ``reset_timeout_s`` it admits one probe call (half-open).  The
    probe's success closes the breaker; its failure re-opens it (and
    restarts the reset timer).
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0

    def __post_init__(self):
        require_int("failure_threshold", self.failure_threshold)
        if self.failure_threshold <= 0:
            raise ValueError(f"failure_threshold must be positive, "
                             f"got {self.failure_threshold}")
        require_positive("reset_timeout_s", self.reset_timeout_s)


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
        self._opened_at = 0.0
        self._probe_inflight = False
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
            self._probe_inflight = False
            self._gauge_state.set(_STATE_VALUES[self._state])

    def allow(self) -> bool:
        """Whether the next dependency call may proceed."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probe_inflight:
                self._probe_inflight = True
                return True
            self._counter_rejected.inc()
            return False

    def record_success(self) -> None:
        """Report a successful dependency call."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == "half-open":
                self._state = "closed"
                self._counter_closed.inc()
                self._gauge_state.set(_STATE_VALUES[self._state])

    def record_failure(self) -> None:
        """Report a failed dependency call (error or deadline miss)."""
        with self._lock:
            if self._state == "half-open":
                # A failed probe re-opens immediately and restarts the
                # reset timer — no threshold while probing.
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
    deadlines).  Failed attempts retry after :data:`BACKOFF_MS` with
    deterministic seeded ±:data:`BACKOFF_JITTER` jitter; slow attempts
    are optionally **hedged** (a backup attempt after ``hedge_ms`` —
    first success wins); and a per-shard :class:`CircuitBreaker`
    short-circuits a shard that keeps failing, so its deadline budget
    stops being paid at all.

    A shard that still fails yields a **degraded** result — merged
    from the surviving shards, coverage and failed-shard list attached,
    never cached.
    """

    #: total per-shard deadline budget per routed chunk, milliseconds
    deadline_ms: float = 100.0
    #: additional attempts after the first (0 = no retry)
    retries: int = 1
    #: hedge trigger: back-up attempt after this many ms without a
    #: result (None disables hedging)
    hedge_ms: float | None = None
    #: per-shard circuit breaker (None disables breakers)
    breaker: BreakerConfig | None = None
    #: seed of the deterministic backoff-jitter stream
    seed: int = 0

    def __post_init__(self):
        require_positive("deadline_ms", self.deadline_ms)
        require_int("retries", self.retries)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.hedge_ms is not None:
            require_positive("hedge_ms", self.hedge_ms)
