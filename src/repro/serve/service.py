"""Batched recommendation front end over a top-K index.

:class:`RecommendationService` is the request-facing layer of the
serving stack.  It adds two things on top of an index:

* **Result caching** — an LRU of finished ``(items, scores)`` lists
  keyed on ``(snapshot version, index kind, user, k, filter_seen)``.
  Keying on the snapshot's content hash means a cache can never serve
  results from a previous model export: load a new snapshot and every
  old entry misses by construction.
* **Batched sweeps** — :meth:`recommend` deduplicates a user batch and
  chops its cache misses into index sweeps of at most
  :attr:`max_batch` users.  Coalescing concurrent single-user traffic
  into such batches is :class:`~repro.serve.runtime.ServingRuntime`'s
  job; it asks :meth:`cached` first, so only misses reach a batch.
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
from repro.serve.index import ExactTopKIndex
from repro.serve.resilience import ResilienceConfig
from repro.serve.router import RouterStats, ShardedTopKIndex
from repro.serve.shard import ShardedSnapshot, load_sharded_snapshot
from repro.serve.snapshot import (EmbeddingSnapshot, SnapshotIntegrityError,
                                  is_sharded_snapshot, load_snapshot,
                                  quarantine_snapshot)

__all__ = ["Recommendation", "ServiceStats", "LRUCache",
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
    """Lifetime counters of one service.

    A registry-backed view: each field is a ``serve.service.<field>``
    counter in the global :class:`~repro.obs.metrics.MetricsRegistry`
    (labeled per service instance), read attribute-style and bumped
    with ``stats.inc(field, amount)``, one locked add, so concurrent
    callers never lose an update and the accounting invariants below
    hold exactly once they return.

    ``requests`` counts **client-facing** calls: one per
    :meth:`RecommendationService.recommend` call, however many index
    sweeps it issues, and one per hit that
    :meth:`RecommendationService.cached` answers.  Every user slot of
    every request lands in exactly one of ``cache_hits`` /
    ``cache_misses`` — including in-batch duplicates, which tally as
    hits — so ``cache_hits + cache_misses == users_served`` always holds
    and ``hit_rate`` describes the same population as ``users_served``.

    ``sweep_s`` accumulates wall-clock seconds spent inside the
    underlying index's ``topk`` sweeps — the "batch" term of the
    serving-runtime latency breakdown (queue wait lives on
    :class:`~repro.serve.runtime.RuntimeStats`, scatter/score/merge on
    :class:`~repro.serve.router.RouterStats`).
    """

    _PREFIX = "serve.service"
    _COUNTERS = {
        "requests": "client-facing recommend() calls and cached() hits",
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


class RecommendationService:
    """Serve ``recommend(user_ids, k)`` on top of a snapshot + index.

    The one front end of both snapshot views (the dense unsharded one
    and the shard set): only the default index depends on the
    snapshot's type; caching, batching and refresh do not.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.snapshot.EmbeddingSnapshot` or
        :class:`~repro.serve.shard.ShardedSnapshot`.  The default index
        is an :class:`~repro.serve.index.ExactTopKIndex` over an
        unsharded snapshot and the scatter-gather
        :class:`ShardedTopKIndex` (scoring ``max_batch`` users per
        block) over a sharded one.
    index:
        Pre-built index replacing the default.  Must wrap the same
        snapshot (checked by content version).  Any object speaking the
        ``topk``/``kind``/``snapshot`` protocol plugs in — including
        the approximate :class:`~repro.ann.ivf.IVFFlatIndex` candidate
        index, whose distinct ``kind`` keeps its cache entries separate
        from the exact index's.
    cache_size:
        LRU capacity in finished per-user lists; 0 disables caching.
    max_batch:
        Upper bound on users per index sweep: the slice size of large
        ``recommend`` calls.
    workers, resilience:
        Fan-out width and failure policy of the default router (see
        :class:`ShardedTopKIndex`); unused when none is built.  Degraded
        answers surface as ``Recommendation.degraded``, never cached.
    """

    def __init__(self, snapshot, *, index=None, cache_size: int = 4096,
                 max_batch: int = 256, workers: int | None = None,
                 resilience: ResilienceConfig | None = None):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if index is None:
            if isinstance(snapshot, ShardedSnapshot):
                index = ShardedTopKIndex(snapshot, chunk_users=max_batch,
                                         workers=workers,
                                         resilience=resilience)
            else:
                index = ExactTopKIndex(snapshot)
        elif index.snapshot.version != snapshot.version:
            raise ValueError(
                f"index wraps snapshot {index.snapshot.version!r} but the "
                f"service was given {snapshot.version!r}")
        # The served (snapshot, index) pair, swapped as one attribute so
        # a sweep never pairs one version's index with another's label.
        self._live = (snapshot, index)
        self.cache = LRUCache(cache_size)
        self.max_batch = max_batch
        self.stats = ServiceStats()

    @property
    def snapshot(self):
        """The snapshot being served."""
        return self._live[0]

    @property
    def index(self):
        """The index answering :attr:`snapshot`'s requests."""
        return self._live[1]

    # ------------------------------------------------------------------
    # Hit path
    # ------------------------------------------------------------------
    def cached(self, user_id: int, k: int = 10,
               filter_seen: bool = True) -> Recommendation | None:
        """The cached answer for one user, or ``None`` on a miss.

        Touches no index.  A hit counts as one request, one served user
        slot and one cache hit; a miss counts nothing, because the
        caller sends it on to :meth:`recommend`, which counts it there.
        Reads the live ``(snapshot, index)`` pair once, so one version
        serves the hit, and a lookup that starts after :meth:`refresh`
        returns never hits the retired version.
        """
        rec = self._lookup(int(user_id), k, filter_seen, self._live)
        if rec is not None:
            self.stats.inc("requests")
            self.stats.inc("users_served")
            self.stats.inc("cache_hits")
        return rec

    def _lookup(self, user: int, k: int, filter_seen: bool,
                live: tuple) -> Recommendation | None:
        """The one hit path: the cached lists of ``live``'s version."""
        entry = self.cache.get(self._key(user, k, filter_seen, live))
        if entry is None:
            return None
        items, scores = entry
        return Recommendation(user_id=user, items=items, scores=scores,
                              snapshot_version=live[0].version,
                              from_cache=True)

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
        self.stats.inc("requests")
        users = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        with get_tracer().span("serve.service.recommend",
                               users=len(users), k=k):
            return self._serve(users, k, filter_seen)

    def _serve(self, users: np.ndarray, k: int,
               filter_seen: bool) -> list[Recommendation]:
        """Answer one prepared user batch.

        Reads the live ``(snapshot, index)`` pair once: a
        :meth:`refresh` landing mid-sweep cannot label or cache the old
        index's lists under the new version.
        """
        live = self._live
        snapshot, index = live
        order = users.tolist()
        self.stats.inc("users_served", len(order))
        results: dict[int, Recommendation] = {}
        misses: list[int] = []
        queued: set[int] = set()
        # Hit/miss tallies accumulate in locals and publish once below:
        # the stats fields are lock-protected registry counters, so
        # per-user updates would put O(users) lock traffic on the hot
        # path.
        hits = 0
        for user in order:
            if user in results or user in queued:
                # In-batch duplicate: answered from the first
                # occurrence's result with no extra index work — a hit,
                # so hits + misses always reconciles with users_served.
                hits += 1
                continue
            hit = self._lookup(user, k, filter_seen, live)
            if hit is not None:
                hits += 1
                results[user] = hit
            else:
                queued.add(user)
                misses.append(user)
        self.stats.inc("cache_hits", hits)
        self.stats.inc("cache_misses", len(misses))
        for lo in range(0, len(misses), self.max_batch):
            batch = np.asarray(misses[lo:lo + self.max_batch], dtype=np.int64)
            sweep_start = time.perf_counter()
            top = index.topk(batch, k=k, filter_seen=filter_seen)
            sweep_end = time.perf_counter()
            # The span reuses the exact readings that feed ``sweep_s``,
            # so the trace and the counters can never disagree.
            get_tracer().record("serve.service.sweep", sweep_start,
                                sweep_end, users=len(batch))
            self.stats.inc("sweep_s", sweep_end - sweep_start)
            self.stats.inc("index_sweeps")
            coverage = top.coverage
            degraded = coverage < 1.0
            if degraded:
                self.stats.inc("degraded_served", len(batch))
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
                    self.cache.put(self._key(user, k, filter_seen, live),
                                   (items, scores))
                results[user] = Recommendation(
                    user_id=user, items=items, scores=scores,
                    snapshot_version=snapshot.version,
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
    # Live refresh
    # ------------------------------------------------------------------
    def refresh(self, snapshot, *, index=None) -> int:
        """Swap in a new snapshot version; returns evicted cache entries.

        ``snapshot`` is a loaded snapshot of the layout being served, or
        a path to a snapshot directory (delegated to
        :meth:`refresh_from_path`, which verifies, quarantines on
        damage, and falls back to the current version).  A service keeps
        its layout for life: an unsharded service refreshes from an
        :class:`~repro.serve.snapshot.EmbeddingSnapshot`, a sharded one
        from a :class:`~repro.serve.shard.ShardedSnapshot`.  ``index``
        overrides the refreshed index; by default the current index's
        ``refreshed(snapshot)`` rebuilds it with the same knobs.

        The swap is atomic from a caller's point of view: snapshot and
        index move together in one assignment, so a sweep already
        running finishes, labels and caches its lists under the version
        it started on.  Only cache entries keyed to retired
        ``(version, kind)`` pairs are then evicted — entries already
        keyed to the incoming version survive.
        """
        if isinstance(snapshot, (str, pathlib.Path)):
            return self.refresh_from_path(snapshot, index=index)
        layout = (ShardedSnapshot if isinstance(self.snapshot, ShardedSnapshot)
                  else EmbeddingSnapshot)
        if not isinstance(snapshot, layout):
            raise TypeError(
                f"this service serves {layout.__name__} and refreshes only "
                f"from that layout (or its directory); got "
                f"{type(snapshot).__name__}")
        if index is None:
            index = self.index.refreshed(snapshot)
        if index.snapshot.version != snapshot.version:
            raise ValueError(
                f"refresh index wraps snapshot {index.snapshot.version!r} "
                f"but the service was given {snapshot.version!r}")
        self._live = (snapshot, index)
        live = (snapshot.version, index.kind)
        invalidated = self.cache.invalidate(lambda key: key[:2] != live)
        self.stats.inc("refreshes")
        self.stats.inc("cache_invalidated", invalidated)
        return invalidated

    def refresh_from_path(self, path, *, mmap: bool = True,
                          quarantine: bool = True, index=None) -> int:
        """Verified refresh from a snapshot directory, with fallback.

        Loads ``path`` with ``verify=True`` and swaps it in: as a
        :class:`~repro.serve.shard.ShardedSnapshot` when this service
        serves one or the directory holds more than one user or item
        shard, else as the unsharded
        :class:`~repro.serve.snapshot.EmbeddingSnapshot` view.  A
        snapshot that fails to load or fails its content-hash verify
        is **rejected**: the service
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
            sharded = (isinstance(self.snapshot, ShardedSnapshot)
                       or is_sharded_snapshot(path))
            load = load_sharded_snapshot if sharded else load_snapshot
            snapshot = load(path, mmap=mmap, verify=True)
        except Exception as exc:
            self.stats.inc("refresh_rejected")
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

    def _key(self, user: int, k: int, filter_seen: bool,
             live: tuple | None = None) -> tuple:
        snapshot, index = self._live if live is None else live
        return (snapshot.version, index.kind, user, k, filter_seen)

    def __repr__(self) -> str:
        return (f"RecommendationService(index={self.index.kind!r}, "
                f"snapshot={self.snapshot.version!r}, "
                f"cache={len(self.cache)}/{self.cache.capacity}, "
                f"hit_rate={self.stats.hit_rate:.2%})")


#: The sharded front end's historical name.  It was a subclass adding a
#: constructor default and a type check; both now live in the one service.
ShardedRecommendationService = RecommendationService
