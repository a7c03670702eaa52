"""Batched recommendation front end over a top-K index.

:class:`RecommendationService` is the request-facing layer of the
serving stack.  It adds two things on top of an index:

* **Result caching** — an LRU of finished ``(items, scores)`` lists
  keyed on ``(snapshot version, index kind, user, k, filter_seen)``.
  Keying on the snapshot's content hash means a cache can never serve
  results from a previous model export: load a new snapshot and every
  old entry misses by construction.
* **Request micro-batching** — single-user lookups submitted via
  :meth:`submit` are coalesced and executed as one batched index sweep
  per :attr:`max_batch` requests (or on :meth:`flush`), amortizing the
  per-call matmul setup the way an online gateway batches concurrent
  traffic.  The vectorized :meth:`recommend` path chops arbitrarily
  large user batches into the same ``max_batch`` sweeps.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.obs.stats import RegistryBackedStats
from repro.obs.trace import get_tracer
from repro.serve.index import TopKIndex, build_index
from repro.serve.resilience import ResilienceConfig
from repro.serve.router import RouterStats, ShardedTopKIndex
from repro.serve.shard import ShardedSnapshot, load_sharded_snapshot
from repro.serve.snapshot import (EmbeddingSnapshot, SnapshotIntegrityError,
                                  is_sharded_snapshot, load_snapshot,
                                  quarantine_snapshot)

__all__ = ["Recommendation", "ServiceStats", "LRUCache", "PendingRequest",
           "RecommendationService", "ShardedRecommendationService"]


@dataclasses.dataclass(frozen=True)
class Recommendation:
    """Top-K answer for one user, best item first.

    ``items``/``scores`` are read-only views shared with the service's
    result cache — call ``.copy()`` before mutating them.

    ``degraded`` marks an answer merged under partial shard coverage
    (the resilient router dropped a shard that failed its deadline
    budget): ``coverage`` is the catalogue fraction actually scored and
    unfillable ranks carry item ``-1`` / score ``-inf``.  Degraded
    answers are **never cached**, so one bad minute cannot keep serving
    partial lists after the shard recovers (``docs/robustness.md``).
    """

    user_id: int
    items: np.ndarray
    scores: np.ndarray
    snapshot_version: str
    from_cache: bool = False
    degraded: bool = False
    coverage: float = 1.0


class ServiceStats(RegistryBackedStats):
    """Lifetime counters (exported into the serve benchmark payload).

    A registry-backed view: each field is a ``serve.service.<field>``
    counter in the global :class:`~repro.obs.metrics.MetricsRegistry`
    (labeled per service instance), readable and writable
    attribute-style exactly like the dataclass it replaced — so the
    pinned accounting invariants below survive unchanged while the same
    counts flow to the Prometheus/JSON exporters.

    ``requests`` counts **client-facing** calls only: one per
    :meth:`RecommendationService.recommend` call and one per
    :meth:`RecommendationService.submit`.  The internal batched sweeps a
    ``flush()`` issues do not bump it.  Every user slot of every request
    lands in exactly one of ``cache_hits`` / ``cache_misses`` —
    including in-batch duplicates, which tally as hits — so
    ``cache_hits + cache_misses == users_served`` always holds and
    ``hit_rate`` describes the same population as ``users_served``.

    ``sweep_s`` accumulates wall-clock seconds spent inside the
    underlying index's ``topk`` sweeps — the "batch" term of the
    serving-runtime latency breakdown (queue wait lives on
    :class:`~repro.serve.runtime.RuntimeStats`, scatter/score/merge on
    :class:`~repro.serve.router.RouterStats`).
    """

    _PREFIX = "serve.service"
    _COUNTERS = {
        "requests": "client-facing recommend()/submit() calls",
        "users_served": "user slots answered (hits + misses)",
        "cache_hits": "user slots answered from the LRU or in-batch dedup",
        "cache_misses": "user slots that required index work",
        "index_sweeps": "batched index topk() sweeps issued",
        "sweep_s": "wall-clock seconds inside index topk() sweeps",
        "refreshes": "snapshot refresh() swaps applied",
        "cache_invalidated": "LRU entries evicted by refresh()",
        "degraded_served": "user slots answered with partial shard coverage",
        "refresh_rejected": "refresh() attempts rejected by verify failure",
    }

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def sweep_ms_per_sweep(self) -> float:
        """Mean wall-clock per index sweep (0.0 before any sweep ran)."""
        return 1e3 * self.sweep_s / self.index_sweeps \
            if self.index_sweeps else 0.0


class LRUCache:
    """Ordered-dict LRU used for finished recommendations.

    Explicitly **thread-safe**: the service is mutated from caller
    threads and the serving runtime's worker concurrently (``get`` /
    ``put`` on the request path, ``invalidate`` from ``refresh()``), so
    every operation — including the read-modify-evict sequence in
    ``put`` and the recency bump in ``get`` — holds one internal lock.
    Python's ``OrderedDict`` offers no atomicity for compound
    operations; without the lock a ``get`` racing an eviction can
    ``KeyError`` on a key it just saw.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        """Insert/refresh a value, evicting the least recent past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self._data.clear()

    def invalidate(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; return count.

        Used by :meth:`RecommendationService.refresh` to evict exactly
        the entries keyed to a retired snapshot version while entries
        already keyed to the incoming version (e.g. warmed ahead of the
        swap) survive.  Atomic with respect to concurrent ``get`` /
        ``put``: the whole scan-and-drop happens under the lock, so a
        racing request can never resurrect a retired entry mid-sweep.
        """
        with self._lock:
            stale = [key for key in self._data if predicate(key)]
            for key in stale:
                del self._data[key]
            return len(stale)


class PendingRequest:
    """Handle for a micro-batched single-user lookup.

    ``result()`` returns the :class:`Recommendation`, flushing the
    service's pending queue first if this request has not been executed
    yet.
    """

    __slots__ = ("user_id", "k", "filter_seen", "_service", "_result")

    def __init__(self, service: "RecommendationService", user_id: int,
                 k: int, filter_seen: bool):
        self.user_id = user_id
        self.k = k
        self.filter_seen = filter_seen
        self._service = service
        self._result: Recommendation | None = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def result(self) -> Recommendation:
        """The finished recommendation, flushing the queue if needed."""
        if self._result is None:
            self._service.flush()
        assert self._result is not None, "flush did not resolve this request"
        return self._result


class RecommendationService:
    """Serve ``recommend(user_ids, k)`` on top of a snapshot + index.

    The one front end of both layouts: only the default index depends
    on the snapshot's type; caching, micro-batching and refresh do not.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.snapshot.EmbeddingSnapshot` or
        :class:`~repro.serve.shard.ShardedSnapshot`.
    kind:
        Scorer kind (``"exact"`` / ``"quantized"``) of the default
        index: :func:`~repro.serve.index.build_index` over an unsharded
        snapshot, the scatter-gather :class:`ShardedTopKIndex` (scoring
        ``max_batch`` users per block) over a sharded one.
    index:
        Pre-built index replacing the default.  Must wrap the same
        snapshot (checked by content version).  Any object speaking the
        ``topk``/``kind``/``snapshot`` protocol plugs in — including
        the approximate :class:`~repro.ann.ivf.IVFFlatIndex` /
        :class:`~repro.ann.pq.IVFPQIndex` candidate indexes, whose
        distinct ``kind`` keeps their cache entries separate from the
        exact index's.
    cache_size:
        LRU capacity in finished per-user lists; 0 disables caching.
    max_batch:
        Upper bound on users per index sweep — both the micro-batch
        flush threshold and the slice size of large ``recommend`` calls.
    workers, resilience:
        Fan-out width and failure policy of the default router (see
        :class:`ShardedTopKIndex`); unused when none is built.  Degraded
        answers surface as ``Recommendation.degraded``, never cached.
    """

    def __init__(self, snapshot, *, kind: str = "exact",
                 index: TopKIndex | None = None, cache_size: int = 4096,
                 max_batch: int = 256, workers: int | None = None,
                 resilience: ResilienceConfig | None = None):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if index is None:
            if isinstance(snapshot, ShardedSnapshot):
                index = ShardedTopKIndex(snapshot, kind=kind,
                                         chunk_users=max_batch,
                                         workers=workers,
                                         resilience=resilience)
            else:
                index = build_index(snapshot, kind)
        elif index.snapshot.version != snapshot.version:
            raise ValueError(
                f"index wraps snapshot {index.snapshot.version!r} but the "
                f"service was given {snapshot.version!r}")
        self.snapshot = snapshot
        self.index = index
        self.cache = LRUCache(cache_size)
        self.max_batch = max_batch
        self.stats = ServiceStats()
        self._pending: list[PendingRequest] = []

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def recommend(self, user_ids, k: int = 10,
                  filter_seen: bool = True) -> list[Recommendation]:
        """Top-``k`` recommendations for a batch of users.

        Cache hits are answered without touching the index; the misses
        are deduplicated and swept through the index in ``max_batch``
        slices.  Results come back in input order (duplicate user ids
        each get their own entry).
        """
        self.stats.requests += 1
        users = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        with get_tracer().span("serve.service.recommend",
                               users=len(users), k=k):
            return self._serve(users, k, filter_seen)

    def _serve(self, users: np.ndarray, k: int,
               filter_seen: bool) -> list[Recommendation]:
        """Answer one prepared user batch (no ``requests`` bump).

        Shared by :meth:`recommend` (which counts the client call) and
        :meth:`flush` (whose client calls were already counted at
        ``submit`` time), so internal flush groups cannot inflate the
        request counter.
        """
        order = users.tolist()
        self.stats.users_served += len(order)
        results: dict[int, Recommendation] = {}
        misses: list[int] = []
        queued: set[int] = set()
        # Hit/miss tallies accumulate in locals and publish once below:
        # the stats fields are lock-protected registry counters now, so
        # per-user updates would put O(users) lock traffic on the hot
        # path (the obs benchmark pins this path within 5% of
        # telemetry-off).
        hits = 0
        for user in order:
            if user in results or user in queued:
                # In-batch duplicate: answered from the first
                # occurrence's result with no extra index work — a hit,
                # so hits + misses always reconciles with users_served.
                hits += 1
                continue
            cached = self.cache.get(self._key(user, k, filter_seen))
            if cached is not None:
                hits += 1
                items, scores = cached
                results[user] = Recommendation(
                    user_id=user, items=items, scores=scores,
                    snapshot_version=self.snapshot.version, from_cache=True)
            else:
                queued.add(user)
                misses.append(user)
        self.stats.cache_hits += hits
        self.stats.cache_misses += len(misses)
        for lo in range(0, len(misses), self.max_batch):
            batch = np.asarray(misses[lo:lo + self.max_batch], dtype=np.int64)
            sweep_start = time.perf_counter()
            top = self.index.topk(batch, k=k, filter_seen=filter_seen)
            sweep_end = time.perf_counter()
            # The span reuses the exact readings that feed ``sweep_s``,
            # so the trace and the counters can never disagree.
            get_tracer().record("serve.service.sweep", sweep_start,
                                sweep_end, users=len(batch))
            self.stats.sweep_s += sweep_end - sweep_start
            self.stats.index_sweeps += 1
            coverage = top.coverage
            degraded = coverage < 1.0
            if degraded:
                self.stats.degraded_served += len(batch)
            for row, user in enumerate(batch.tolist()):
                items = top.items[row].copy()
                scores = top.scores[row].copy()
                # Frozen before caching: the same arrays back both the
                # cache entry and the returned Recommendation, so a
                # caller mutating a result must fail loudly instead of
                # silently poisoning every future cache hit.
                items.flags.writeable = False
                scores.flags.writeable = False
                if not degraded:
                    # Degraded lists never enter the LRU: a cached
                    # partial answer would keep serving after the shard
                    # recovered, and there is no TTL to age it out.
                    self.cache.put(self._key(user, k, filter_seen),
                                   (items, scores))
                results[user] = Recommendation(
                    user_id=user, items=items, scores=scores,
                    snapshot_version=self.snapshot.version,
                    degraded=degraded, coverage=coverage)
        out: list[Recommendation] = []
        emitted: set[int] = set()
        for user in order:
            rec = results[user]
            if user in emitted and not rec.from_cache:
                # Duplicate of an in-batch miss: served from the first
                # occurrence's freshly computed lists, which is a cache
                # hit from this slot's point of view.
                rec = dataclasses.replace(rec, from_cache=True)
            emitted.add(user)
            out.append(rec)
        return out

    def recommend_one(self, user_id: int, k: int = 10,
                      filter_seen: bool = True) -> Recommendation:
        """Single-user convenience wrapper over :meth:`recommend`."""
        return self.recommend([user_id], k=k, filter_seen=filter_seen)[0]

    # ------------------------------------------------------------------
    # Micro-batched path
    # ------------------------------------------------------------------
    def submit(self, user_id: int, k: int = 10,
               filter_seen: bool = True) -> PendingRequest:
        """Enqueue one lookup; executes when ``max_batch`` accumulate.

        Returns a :class:`PendingRequest` whose ``result()`` forces a
        flush if needed — so callers can fire off a burst of submits and
        then read results, paying one index sweep instead of a sweep per
        user.  Each submit counts as one client request in
        :attr:`stats`; the flush that later executes it does not count
        again.
        """
        self.stats.requests += 1
        request = PendingRequest(self, user_id, k, filter_seen)
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return request

    def flush(self) -> None:
        """Execute every pending micro-batched request."""
        pending, self._pending = self._pending, []
        # Group by (k, filter_seen) so one flush still issues batched
        # sweeps even when interleaved request shapes differ.
        groups: dict[tuple[int, bool], list[PendingRequest]] = {}
        for request in pending:
            groups.setdefault((request.k, request.filter_seen),
                              []).append(request)
        with get_tracer().span("serve.service.flush",
                               requests=len(pending)):
            for (k, filter_seen), members in groups.items():
                answers = self._serve(
                    np.asarray([m.user_id for m in members],
                               dtype=np.int64),
                    k, filter_seen)
                for member, answer in zip(members, answers):
                    member._result = answer

    @property
    def pending(self) -> int:
        """Number of queued micro-batched requests."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Live refresh
    # ------------------------------------------------------------------
    def refresh(self, snapshot_or_deltas, *,
                index: TopKIndex | None = None) -> int:
        """Swap in a new snapshot version; returns evicted cache entries.

        ``snapshot_or_deltas`` is either a loaded snapshot of the
        layout being served, a path to a snapshot directory (delegated
        to :meth:`refresh_from_path`, which verifies, quarantines on
        damage, and falls back to the current version), or — unsharded
        only — a list of :class:`~repro.serve.delta.Delta` objects,
        replayed in-memory against the current snapshot
        (:func:`~repro.serve.delta.apply_deltas`).  Deltas edit the
        unsharded row tables, so a service over a sharded snapshot must
        be handed the already-resharded
        :class:`~repro.serve.shard.ShardedSnapshot` (and, for
        ANN-routed setups, a refreshed router via ``index=``).
        ``index`` overrides the refreshed index; by default the current
        index's ``refreshed(snapshot)`` rebuilds or updates it.

        The swap is atomic from a caller's point of view: pending
        micro-batched requests are flushed against the *old* snapshot
        first (they were accepted under that version), then snapshot,
        index, and cache move together.  Only cache entries keyed to
        retired ``(version, kind)`` pairs are evicted — entries already
        keyed to the incoming version survive.
        """
        if isinstance(snapshot_or_deltas, (str, pathlib.Path)):
            return self.refresh_from_path(snapshot_or_deltas, index=index)
        snapshot = snapshot_or_deltas
        if isinstance(self.snapshot, ShardedSnapshot):
            if not isinstance(snapshot, ShardedSnapshot):
                raise TypeError(
                    "sharded services refresh from a ShardedSnapshot; apply "
                    "deltas to the unsharded snapshot and re-shard it first")
        elif not isinstance(snapshot, EmbeddingSnapshot):
            from repro.serve.delta import apply_deltas
            snapshot = apply_deltas(self.snapshot, list(snapshot))
        if index is None:
            index = self.index.refreshed(snapshot)
        if index.snapshot.version != snapshot.version:
            raise ValueError(
                f"refresh index wraps snapshot {index.snapshot.version!r} "
                f"but the service was given {snapshot.version!r}")
        self.flush()
        self.snapshot = snapshot
        self.index = index
        live = (snapshot.version, index.kind)
        invalidated = self.cache.invalidate(lambda key: key[:2] != live)
        self.stats.refreshes += 1
        self.stats.cache_invalidated += invalidated
        return invalidated

    def refresh_from_path(self, path, *, mmap: bool = True,
                          quarantine: bool = True, index=None) -> int:
        """Verified refresh from a snapshot directory, with fallback.

        Loads ``path`` (sharded or not — detected by layout) with
        ``verify=True`` and swaps it in.  A snapshot that fails to load
        or fails its content-hash verify is **rejected**: the service
        keeps serving its current (last-good) version untouched, the
        damaged directory is moved aside
        (:func:`~repro.serve.snapshot.quarantine_snapshot`, unless
        ``quarantine=False``), and
        :class:`~repro.serve.snapshot.SnapshotIntegrityError` is raised
        with the quarantine location attached — the explicit
        alternative to either crashing the serving path or silently
        serving corrupt embeddings.
        """
        path = pathlib.Path(path)
        try:
            load = (load_sharded_snapshot if is_sharded_snapshot(path)
                    else load_snapshot)
            snapshot = load(path, mmap=mmap, verify=True)
        except Exception as exc:
            self.stats.refresh_rejected += 1
            quarantined = None
            if quarantine and path.exists():
                quarantined = quarantine_snapshot(path)
            raise SnapshotIntegrityError(
                f"refresh from {path} rejected ({exc}); still serving "
                f"last-good snapshot {self.snapshot.version!r}"
                + (f"; damaged files moved to {quarantined}"
                   if quarantined is not None else ""),
                quarantined_to=quarantined) from exc
        return self.refresh(snapshot, index=index)

    # ------------------------------------------------------------------
    @property
    def router_stats(self) -> RouterStats | None:
        """Scatter-gather timing counters of the index when it is a
        router; ``None`` for an index that routes nothing."""
        return getattr(self.index, "stats", None)

    def _key(self, user: int, k: int, filter_seen: bool) -> tuple:
        return (self.snapshot.version, self.index.kind, user, k, filter_seen)

    def __repr__(self) -> str:
        return (f"RecommendationService(index={self.index.kind!r}, "
                f"snapshot={self.snapshot.version!r}, "
                f"cache={len(self.cache)}/{self.cache.capacity}, "
                f"hit_rate={self.stats.hit_rate:.2%})")


#: The sharded front end's historical name.  It was a subclass adding a
#: constructor default and a type check; both now live in the one service.
ShardedRecommendationService = RecommendationService
