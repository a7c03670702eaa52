"""Async SLO-driven serving runtime: admission, batching, backpressure.

:class:`ServingRuntime` is the request runtime the ROADMAP's "heavy
traffic" items call for.  It puts a **bounded admission queue** in front
of a :class:`~repro.serve.service.RecommendationService` and drains it
from a background worker thread in **adaptive micro-batches**:

* **Admission / overload.**  :meth:`ServingRuntime.submit` returns an
  :class:`AsyncRequest` future for one request.  It first asks the
  service's result cache (``service.cached``): a hit completes the
  future on the caller's thread and never enters the queue.  Only a
  miss is enqueued; one with a user id outside the snapshot or a
  ``k <= 0`` fails through its own future instead.  When the queue
  holds ``max_queue`` requests a miss is **shed** — ``submit`` raises
  :class:`OverloadError` immediately instead of growing an unbounded
  backlog whose every entry would blow the latency SLO anyway.  Shed
  counts are tracked on :class:`RuntimeStats` and reported as the
  ``shed_rate`` column of the latency benchmark.
* **Adaptive micro-batch sizing.**  The worker collects up to
  ``batch_size`` queued misses per sweep, so ``batch_size`` bounds the
  index work of a sweep.  Every ``window`` requests it serves, it
  re-reads their recent p99 latency: while p99 is under
  ``headroom * slo_ms`` the batch grows multiplicatively (amortizing
  per-sweep overhead → more throughput), and once p99 crosses the SLO
  it shrinks multiplicatively (smaller sweeps → lower queueing delay).
  The batch size always stays inside ``[min_batch, max_batch]``.
* **Latency breakdown.**  Each request records wall-clock queue wait
  and in-batch service time (an admission hit: its cache lookup and
  0); the service underneath accumulates index sweep seconds
  (``ServiceStats.sweep_s``) and — when serving a sharded
  snapshot — the router splits its time into gather/score/merge
  (:class:`~repro.serve.router.RouterStats`).  :meth:`ServingRuntime.breakdown`
  stitches the three layers into one per-request view.

The runtime never changes *what* is served: results are exactly the
service's ``cached`` / ``recommend`` answers, so every parity/caching
contract of the layers below carries through unchanged.  The full
contract is documented in ``docs/serving.md``; the latency suite in
:mod:`repro.experiments.perf` (``repro bench latency``) drives paced
open-loop arrivals through this runtime, stepping the offered load
with a closed-loop sweep controller until saturation, and commits the
``BENCH_latency.json`` frontier.
"""

from __future__ import annotations

import collections
import dataclasses
import queue
import threading
import time

import numpy as np

from repro.obs.metrics import Reservoir, get_registry
from repro.obs.stats import RegistryBackedStats
from repro.obs.trace import get_tracer

__all__ = ["OverloadError", "DeadlineExceeded", "WorkerCrashed",
           "RuntimeConfig", "RuntimeStats", "AsyncRequest",
           "ServingRuntime", "latency_percentile"]


class OverloadError(RuntimeError):
    """Raised by ``submit`` when the bounded admission queue is full."""


class DeadlineExceeded(RuntimeError):
    """A request spent longer than its deadline in the admission queue.

    Raised *through the future* (``AsyncRequest.result()``), never
    silently: a request that already blew its budget waiting is failed
    when the worker picks it up instead of being served late — the
    caller has certainly stopped waiting, and serving it would only
    push the requests behind it past their own deadlines.
    """


class WorkerCrashed(RuntimeError):
    """The runtime's worker loop died; pending futures carry the cause.

    Surfaced in two places: on every future that was pending when the
    worker crashed (``__cause__`` holds the original exception), and
    from ``submit()`` once the supervisor has fail-stopped (crash
    budget exhausted, or ``restart_on_crash=False``) — the runtime
    refuses new work loudly instead of queueing into a dead loop.
    """


def latency_percentile(samples, q: float) -> float:
    """Linear-interpolated percentile of a sample sequence.

    Returns ``0.0`` for an empty sequence so benchmark columns stay
    finite even for levels where nothing completed.
    """
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclasses.dataclass
class RuntimeConfig:
    """Knobs of the admission queue and the batch-size controller.

    ``slo_ms`` is a **p99 target** over the most recent ``window``
    completed requests — tail latency, not the mean, because heavy
    traffic is judged by its slowest percentile.
    """

    #: p99 latency target (enqueue → result ready), milliseconds
    slo_ms: float = 50.0
    #: admission-queue bound; a full queue sheds instead of growing
    max_queue: int = 1024
    #: micro-batch size limits and starting point
    min_batch: int = 1
    max_batch: int = 256
    initial_batch: int = 8
    #: completed requests between batch-size adaptations (also the
    #: sliding-window length of the controller's p99 estimate)
    window: int = 64
    #: grow the batch while recent p99 < headroom * slo_ms
    headroom: float = 0.7
    #: multiplicative batch growth / shrink factors
    grow: float = 2.0
    shrink: float = 0.5
    #: idle worker poll interval, milliseconds
    poll_ms: float = 0.2
    #: lifetime latency sample kept for :meth:`ServingRuntime.latency_quantiles`
    #: — a fixed-size seeded reservoir, so memory stays bounded over
    #: arbitrarily long soaks while the quantiles describe the whole run
    reservoir_size: int = 2048
    reservoir_seed: int = 0
    #: per-request deadline (enqueue → batch start), milliseconds; a
    #: request still queued past it fails with :class:`DeadlineExceeded`
    #: when the worker picks it up.  ``None`` disables deadlines.
    deadline_ms: float | None = None
    #: supervisor policy after a worker-loop crash: restart in place
    #: (up to ``max_restarts`` times) or fail-stop immediately
    restart_on_crash: bool = True
    max_restarts: int = 3

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, "
                             f"got {self.deadline_ms}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, "
                             f"got {self.max_restarts}")
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.max_queue <= 0:
            raise ValueError(f"max_queue must be positive, "
                             f"got {self.max_queue}")
        if not 0 < self.min_batch <= self.max_batch:
            raise ValueError(f"need 0 < min_batch <= max_batch, got "
                             f"[{self.min_batch}, {self.max_batch}]")
        if not self.min_batch <= self.initial_batch <= self.max_batch:
            raise ValueError(f"initial_batch {self.initial_batch} outside "
                             f"[{self.min_batch}, {self.max_batch}]")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0 < self.headroom <= 1:
            raise ValueError(f"headroom must lie in (0, 1], "
                             f"got {self.headroom}")
        if self.grow <= 1 or not 0 < self.shrink < 1:
            raise ValueError(f"need grow > 1 and 0 < shrink < 1, got "
                             f"grow={self.grow}, shrink={self.shrink}")
        if self.poll_ms <= 0:
            raise ValueError(f"poll_ms must be positive, got {self.poll_ms}")
        if self.reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, "
                             f"got {self.reservoir_size}")


class RuntimeStats(RegistryBackedStats):
    """Lifetime counters of one runtime (feeds ``BENCH_latency.json``).

    A registry-backed view (see
    :class:`~repro.obs.stats.RegistryBackedStats`): each field is a
    ``serve.runtime.<field>`` counter labeled per runtime instance, read
    attribute-style and bumped with ``stats.inc(field, amount)``.

    ``admitted`` and ``completed`` include ``admission_hits``, the
    requests answered from the cache inside ``submit``; the rest went
    through a micro-batch.  ``queue_s`` / ``service_s`` are
    **per-request sums**: each completed request contributes its own
    queue wait and its batch's execution time (a hit: its lookup time
    and 0), so dividing by ``completed`` gives the mean per-request
    breakdown terms.
    """

    _PREFIX = "serve.runtime"
    _COUNTERS = {
        "admitted": "requests accepted (queued or admission hits)",
        "rejected": "requests shed at admission (queue full)",
        "completed": "requests finished (worker or admission hit)",
        "admission_hits": "requests answered from the cache in submit()",
        "batches": "micro-batches executed",
        "queue_s": "per-request admission-to-batch-start wait, summed",
        "service_s": "per-request batch execution time, summed",
        "grows": "batch-size controller growth steps",
        "shrinks": "batch-size controller shrink steps",
        "refreshes": "snapshot refreshes applied between batches",
        "refresh_s": "seconds spent applying refreshes",
        "deadline_expired": "requests failed in queue past their deadline",
        "worker_crashes": "worker-loop crashes caught by the supervisor",
        "worker_restarts": "supervisor restarts after a crash",
    }

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests refused at admission."""
        offered = self.admitted + self.rejected
        return self.rejected / offered if offered else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean worker-served requests per executed micro-batch."""
        served = self.completed - self.admission_hits
        return served / self.batches if self.batches else 0.0


class AsyncRequest:
    """Future-like handle for one admitted request.

    ``result()`` blocks until the worker thread publishes the
    :class:`~repro.serve.service.Recommendation` (or re-raises the
    worker-side error).  Timestamps are ``time.perf_counter()`` values
    stamped by the runtime; the ``*_ms`` properties expose the
    per-request latency breakdown once the request finished.
    """

    __slots__ = ("user_id", "k", "filter_seen", "enqueued_at", "started_at",
                 "finished_at", "deadline_at", "_event", "_result", "_error")

    def __init__(self, user_id: int, k: int, filter_seen: bool):
        self.user_id = user_id
        self.k = k
        self.filter_seen = filter_seen
        self.enqueued_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.deadline_at: float | None = None
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """The finished recommendation (blocks up to ``timeout`` s)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request for user {self.user_id} still "
                               f"pending after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def queue_ms(self) -> float:
        """Admission-to-batch-start wait (0.0 until started)."""
        if self.started_at is None or self.enqueued_at is None:
            return 0.0
        return 1e3 * (self.started_at - self.enqueued_at)

    @property
    def service_ms(self) -> float:
        """Batch execution time of the sweep that served this request."""
        if self.finished_at is None or self.started_at is None:
            return 0.0
        return 1e3 * (self.finished_at - self.started_at)

    @property
    def latency_ms(self) -> float:
        """End-to-end enqueue → result latency (0.0 until finished)."""
        if self.finished_at is None or self.enqueued_at is None:
            return 0.0
        return 1e3 * (self.finished_at - self.enqueued_at)


class ServingRuntime:
    """Bounded-queue, SLO-batched front end over a recommendation service.

    Parameters
    ----------
    service:
        Any :class:`~repro.serve.service.RecommendationService`
        (sharded or not).  The runtime owns request admission and
        batching; the service keeps owning caching and index sweeps.
    config:
        :class:`RuntimeConfig`; defaults target a 50 ms p99.

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with ServingRuntime(service, RuntimeConfig(slo_ms=25.0)) as rt:
            handles = [rt.submit(u, k=10) for u in users]
            lists = [h.result(timeout=5.0) for h in handles]

    ``stop()`` drains every already-admitted request before the worker
    exits, so accepted work is never silently dropped.  Cache hits are
    answered inside ``submit`` whether or not the worker runs.
    """

    def __init__(self, service, config: RuntimeConfig | None = None):
        self.service = service
        self.config = config or RuntimeConfig()
        self.stats = RuntimeStats()
        self.batch_size = self.config.initial_batch
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.max_queue)
        # Recent-window samples feed the batch-size controller only; the
        # bounded seeded reservoir keeps a lifetime-representative sample
        # for latency_quantiles() without ever growing RSS.
        self._latencies: collections.deque = collections.deque(
            maxlen=self.config.window)
        self._reservoir = Reservoir(capacity=self.config.reservoir_size,
                                    seed=self.config.reservoir_seed)
        registry = get_registry()
        # Share the stats view's instance label so one runtime is one
        # instance across its counters, histograms and gauge.
        labels = self.stats.obs_labels
        self._hist_latency = registry.histogram(
            "serve.runtime.latency_ms",
            "end-to-end enqueue-to-result latency", labels=labels)
        self._hist_queue = registry.histogram(
            "serve.runtime.queue_ms",
            "admission-to-batch-start wait", labels=labels)
        self._gauge_batch = registry.gauge(
            "serve.runtime.batch_size",
            "current adaptive micro-batch size", labels=labels)
        self._gauge_batch.set(self.batch_size)
        self._since_adapt = 0
        self._stop = threading.Event()
        self._worker: threading.Thread | None = None
        self._refresh_lock = threading.Lock()
        self._refresh_slot: dict | None = None
        self._crash_count = 0
        self._fatal: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "ServingRuntime":
        """Spawn the worker thread (idempotent while running).

        Starting a runtime that previously **fail-stopped** clears the
        fatal state and the crash budget — an explicit operator restart
        begins a fresh supervision episode.
        """
        if not self.running:
            self._stop.clear()
            self._fatal = None
            self._crash_count = 0
            self._worker = threading.Thread(target=self._run,
                                            name="serving-runtime",
                                            daemon=True)
            self._worker.start()
        return self

    def stop(self) -> None:
        """Drain admitted requests, then join the worker (idempotent)."""
        if self._worker is None:
            return
        self._stop.set()
        self._worker.join()
        self._worker = None
        # A refresh posted after the worker's final slot check would
        # otherwise strand its waiter; apply it synchronously now.
        self._apply_refresh()

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, user_id: int, k: int = 10,
               filter_seen: bool = True) -> AsyncRequest:
        """Admit one request, or shed it with :class:`OverloadError`.

        A cache hit returns a done future: the service's
        :meth:`~repro.serve.service.RecommendationService.cached`
        answers it on this thread and it never waits for a batch.  Only
        a miss is queued.  A miss with a user id outside
        ``[0, num_users)`` of the served snapshot or a ``k <= 0`` is
        neither queued nor counted as admitted: its future raises
        ``ValueError`` from ``result()``, so one bad request never
        fails a whole batch.

        Sheds *immediately* when the queue is at ``max_queue`` — the
        explicit overload contract: a caller sees backpressure at
        submit time rather than a result that silently missed the SLO
        after minutes in an unbounded backlog.

        Raises :class:`WorkerCrashed` when the runtime has fail-stopped
        — new work is refused loudly instead of queueing into a dead
        loop (call :meth:`start` again for an explicit restart).
        """
        self._check_worker()
        request = AsyncRequest(user_id, k, filter_seen)
        request.enqueued_at = time.perf_counter()
        answer = self.service.cached(user_id, k, filter_seen)
        if answer is not None:
            self._complete_hit(request, answer)
            return request
        if self.config.deadline_ms is not None:
            request.deadline_at = (request.enqueued_at
                                   + self.config.deadline_ms / 1e3)
        error = self._invalid(user_id, k)
        try:
            # A full queue sheds every miss, a bad one included.
            if error is None:
                self._queue.put_nowait(request)
            elif self._queue.full():
                raise queue.Full
        except queue.Full:
            self.stats.inc("rejected")
            raise OverloadError(
                f"admission queue full ({self.config.max_queue} pending); "
                f"request for user {user_id} shed") from None
        if error is not None:
            request._error = error
            request._event.set()
            return request
        self.stats.inc("admitted")
        return request

    def _invalid(self, user_id: int, k: int) -> ValueError | None:
        """The error a request would raise inside a batch, or ``None``."""
        num_users = self.service.snapshot.manifest.num_users
        if not 0 <= user_id < num_users:
            return ValueError(f"user ids must lie in [0, {num_users})")
        if k <= 0:
            return ValueError(f"k must be positive, got {k}")
        return None

    def _complete_hit(self, request: AsyncRequest, answer) -> None:
        """Publish an admission hit: its lookup was its queue wait.

        It enters the latency reservoir and histograms but not the
        batch-size controller's window: a hit never waited for a batch,
        so its latency says nothing about the batch size.
        """
        request._result = answer
        request.started_at = request.finished_at = time.perf_counter()
        latency_ms = request.latency_ms
        self.stats.inc("admitted")
        self.stats.inc("admission_hits")
        self.stats.inc("completed")
        self.stats.inc("queue_s", request.started_at - request.enqueued_at)
        self._reservoir.add(latency_ms)
        self._hist_latency.observe(latency_ms)
        self._hist_queue.observe(request.queue_ms)
        request._event.set()

    @property
    def pending(self) -> int:
        """Admitted requests not yet picked up by the worker."""
        return self._queue.qsize()

    def _check_worker(self) -> None:
        """Watchdog at the interaction points: surface a dead worker.

        Covers both death modes — the supervisor fail-stopped (fatal is
        recorded), or the thread died without passing through the
        supervisor at all (nothing in the loop should allow that; if it
        happens anyway, pending futures are failed here rather than
        hanging until their timeouts).
        """
        if self._fatal is not None:
            raise WorkerCrashed(
                f"serving worker fail-stopped: {self._fatal!r}; "
                f"call start() to restart") from self._fatal
        worker = self._worker
        if (worker is not None and not worker.is_alive()
                and not self._stop.is_set()):
            self._fatal = RuntimeError("worker thread died unexpectedly")
            self.stats.inc("worker_crashes")
            self._fail_pending(WorkerCrashed(
                "worker thread died unexpectedly"))
            raise WorkerCrashed(
                "serving worker thread died unexpectedly; "
                "call start() to restart")

    def _fail_pending(self, error: BaseException) -> int:
        """Fail every queued request with ``error``; returns the count."""
        failed = 0
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return failed
            request._error = error
            request._event.set()
            failed += 1

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Readiness probe: ``ok`` iff the worker is alive and sane.

        Cheap enough to poll from a load balancer loop; ``fatal``
        carries the repr of the crash that fail-stopped the runtime (or
        ``None``).
        """
        running = self.running
        return {
            "ok": running and self._fatal is None,
            "running": running,
            "pending": self.pending,
            "batch_size": self.batch_size,
            "worker_crashes": int(self.stats.worker_crashes),
            "worker_restarts": int(self.stats.worker_restarts),
            "fatal": repr(self._fatal) if self._fatal is not None else None,
            "snapshot_version": self.service.snapshot.version,
        }

    # ------------------------------------------------------------------
    # Live refresh
    # ------------------------------------------------------------------
    def refresh(self, snapshot, *, index=None,
                timeout: float = 30.0) -> int:
        """Atomically swap the served snapshot between micro-batches.

        Delegates to
        :meth:`~repro.serve.service.RecommendationService.refresh`, but
        never concurrently with a sweep: while the worker is running the
        swap request parks in a one-deep slot that the worker applies
        *between* batches, so every request is served entirely by one
        snapshot version — no torn reads, no dropped requests.  Blocks
        until the swap lands (or ``timeout`` seconds pass) and returns
        the number of cache entries invalidated.  With the worker
        stopped the swap runs synchronously on the caller's thread.
        ``snapshot`` may be a directory: it is then loaded verified, and
        a damaged one is quarantined and rejected with
        :class:`~repro.serve.snapshot.SnapshotIntegrityError` while the
        last-good version keeps serving.
        """
        slot = {"args": (snapshot, index),
                "done": threading.Event(), "error": None, "invalidated": 0}
        with self._refresh_lock:
            if self._refresh_slot is not None:
                raise RuntimeError("a refresh is already in flight")
            self._refresh_slot = slot
        if not self.running:
            self._apply_refresh()
        if not slot["done"].wait(timeout):
            raise TimeoutError(f"refresh still pending after {timeout}s")
        if slot["error"] is not None:
            raise slot["error"]
        return slot["invalidated"]

    def _apply_refresh(self) -> None:
        """Apply a parked refresh, if any (worker thread, between batches)."""
        with self._refresh_lock:
            slot, self._refresh_slot = self._refresh_slot, None
        if slot is None:
            return
        # When tracing is on, refresh_s is accumulated from the span's
        # own clock readings, so the trace and the counter agree exactly.
        with get_tracer().span("serve.runtime.refresh") as span:
            started = span.start_s if span is not None \
                else time.perf_counter()
            try:
                snapshot, index = slot["args"]
                slot["invalidated"] = self.service.refresh(
                    snapshot, index=index)
            except BaseException as exc:
                slot["error"] = exc
        ended = span.end_s if span is not None else time.perf_counter()
        if slot["error"] is None:
            self.stats.inc("refreshes")
            self.stats.inc("refresh_s", ended - started)
        slot["done"].set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latency_quantiles(self, qs=(50.0, 99.0)) -> dict:
        """Lifetime latency quantiles, e.g. ``{"p50_ms": ...}``.

        Computed over a fixed-size seeded reservoir sample of *every*
        completed request (capacity ``config.reservoir_size``), so the
        estimate covers the whole soak at bounded memory.  The batch-size
        controller keeps using its separate recent-window deque.
        """
        samples = self._reservoir.values()
        return {f"p{q:g}_ms": latency_percentile(samples, q) for q in qs}

    def breakdown(self) -> dict:
        """Mean per-request queue/batch/score/merge decomposition (ms).

        ``queue_ms`` / ``service_ms`` come from this runtime's own
        counters, ``sweep_ms`` from the service's index-sweep clock, and
        — when the service's router fans out over more than one item
        shard — the router's gather/score/merge split is appended per
        sweep.  Over one item shard there is nothing to split: the merge
        is a copy and the sweep is the score.

        With tracing enabled (:func:`repro.obs.trace.tracing`) these
        counters are accumulated from the batch/refresh spans' own clock
        readings, so this breakdown and the captured span trees are two
        projections of the same measurements — they reconcile exactly
        (``tests/test_obs_integration.py`` pins
        ``sum(span durations × batch) == service_s``).
        """
        n = max(self.stats.completed, 1)
        out = {
            "queue_ms": 1e3 * self.stats.queue_s / n,
            "service_ms": 1e3 * self.stats.service_s / n,
            "sweep_ms": self.service.stats.sweep_ms_per_sweep,
            "refresh_ms": (1e3 * self.stats.refresh_s / self.stats.refreshes
                           if self.stats.refreshes else 0.0),
            "mean_batch": self.stats.mean_batch,
            "batch_size": self.batch_size,
        }
        router = self.service.router_stats
        if router is not None and self.service.snapshot.manifest \
                .num_item_shards > 1:
            sweeps = max(router.sweeps, 1)
            out.update({
                "gather_ms": 1e3 * router.gather_s / sweeps,
                "score_ms": 1e3 * router.score_s / sweeps,
                "merge_ms": 1e3 * router.merge_s / sweeps,
            })
        return out

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Supervised worker loop.

        ``_execute`` already guarantees every picked-up future resolves,
        so nothing in the loop body *should* escape — but a bug must not
        leave callers blocked on futures forever.  The supervisor
        catches any escape, fails the whole backlog with
        :class:`WorkerCrashed` (carrying the cause), and either restarts
        the loop in place (``restart_on_crash``, up to ``max_restarts``)
        or fail-stops: the thread exits, :meth:`health` reports the
        fatal cause, and :meth:`submit` refuses new work loudly.
        """
        while True:
            try:
                # Swaps land here — strictly between micro-batches, so a
                # batch in flight always finishes on the version it
                # started.
                self._apply_refresh()
                batch = self._collect_batch()
                if batch:
                    self._execute(batch)
                elif self._stop.is_set():
                    return
            except BaseException as exc:  # noqa: BLE001 — supervisor
                self._crash_count += 1
                self.stats.inc("worker_crashes")
                crash = WorkerCrashed(f"serving worker crashed: {exc!r}")
                crash.__cause__ = exc
                self._fail_pending(crash)
                if (self._stop.is_set()
                        or not self.config.restart_on_crash
                        or self._crash_count > self.config.max_restarts):
                    self._fatal = exc
                    return
                self.stats.inc("worker_restarts")

    def _collect_batch(self) -> list[AsyncRequest]:
        """Up to ``batch_size`` queued requests; [] after an idle poll.

        Requests whose deadline already passed while queued are failed
        here with :class:`DeadlineExceeded` — the deadline is enforced
        at pickup, before any service work is spent on a request whose
        caller has stopped waiting.
        """
        try:
            first = self._queue.get(timeout=1e-3 * self.config.poll_ms)
        except queue.Empty:
            return []
        batch = [first]
        while len(batch) < self.batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        if self.config.deadline_ms is None:
            return batch
        now = time.perf_counter()
        live = []
        for request in batch:
            if request.deadline_at is not None and now > request.deadline_at:
                self.stats.inc("deadline_expired")
                request._error = DeadlineExceeded(
                    f"request for user {request.user_id} waited "
                    f"{1e3 * (now - request.enqueued_at):.1f} ms in queue "
                    f"(deadline {self.config.deadline_ms:g} ms)")
                request._event.set()
            else:
                live.append(request)
        return live

    def _execute(self, batch: list[AsyncRequest]) -> None:
        # Resolution guarantee: every request in ``batch`` gets its
        # event set before this method returns — by the normal
        # accounting loop, or by the ``finally`` backstop if anything
        # escapes.  A picked-up future must never hang.
        try:
            self._execute_inner(batch)
        finally:
            for request in batch:
                if not request._event.is_set():
                    if request._error is None and request._result is None:
                        request._error = WorkerCrashed(
                            "worker failed before publishing this batch")
                    request._event.set()

    def _execute_inner(self, batch: list[AsyncRequest]) -> None:
        # When tracing is on, the batch span's own clock readings become
        # started/finished, so the span tree and the queue_s/service_s
        # counters are derived from the same samples — breakdown() and a
        # trace can never disagree (pinned by tests/test_obs_integration).
        with get_tracer().span("serve.runtime.batch",
                               batch=len(batch)) as span:
            started = span.start_s if span is not None \
                else time.perf_counter()
            groups: dict[tuple[int, bool], list[AsyncRequest]] = {}
            for request in batch:
                groups.setdefault((request.k, request.filter_seen),
                                  []).append(request)
            for (k, filter_seen), members in groups.items():
                try:
                    answers = self.service.recommend(
                        [m.user_id for m in members], k=k,
                        filter_seen=filter_seen)
                    if len(answers) != len(members):
                        # A short/long answer list must not zip into
                        # silent Nones for the tail of the group.
                        raise RuntimeError(
                            f"service returned {len(answers)} answers "
                            f"for {len(members)} requests")
                except BaseException as exc:  # propagate to every waiter
                    for member in members:
                        member._error = exc
                else:
                    for member, answer in zip(members, answers):
                        member._result = answer
        finished = span.end_s if span is not None else time.perf_counter()
        self.stats.inc("batches")
        self.stats.inc("completed", len(batch))
        # Sum per-request terms locally and publish once: instrument
        # writes are lock-protected, so per-request updates would put
        # O(batch) lock traffic on the hot path.
        queue_s = 0.0
        for request in batch:
            request.started_at = started
            request.finished_at = finished
            queue_s += started - request.enqueued_at
            latency_ms = request.latency_ms
            self._latencies.append(latency_ms)
            self._reservoir.add(latency_ms)
            self._hist_latency.observe(latency_ms)
            self._hist_queue.observe(request.queue_ms)
            request._event.set()
        self.stats.inc("queue_s", queue_s)
        self.stats.inc("service_s", (finished - started) * len(batch))
        self._since_adapt += len(batch)
        if self._since_adapt >= self.config.window:
            self._adapt()

    def _adapt(self) -> None:
        """One batch-size controller step from the recent-window p99."""
        self._since_adapt = 0
        config = self.config
        p99 = latency_percentile(list(self._latencies), 99.0)
        if p99 > config.slo_ms and self.batch_size > config.min_batch:
            self.batch_size = max(config.min_batch,
                                  int(self.batch_size * config.shrink))
            self.stats.inc("shrinks")
        elif (p99 < config.headroom * config.slo_ms
              and self.batch_size < config.max_batch):
            self.batch_size = min(config.max_batch,
                                  max(self.batch_size + 1,
                                      int(self.batch_size * config.grow)))
            self.stats.inc("grows")
        self._gauge_batch.set(self.batch_size)

    def __repr__(self) -> str:
        return (f"ServingRuntime(running={self.running}, "
                f"batch_size={self.batch_size}, pending={self.pending}, "
                f"slo_ms={self.config.slo_ms}, "
                f"shed_rate={self.stats.shed_rate:.2%})")
