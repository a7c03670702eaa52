"""Scatter-gather routing over a sharded snapshot.

:class:`ShardedTopKIndex` answers ``topk(user_ids, k)`` against a
:class:`~repro.serve.shard.ShardedSnapshot` in three steps per user
chunk:

1. **scatter (users)** — route each requested user to its owning user
   shard, gather the embedding rows (plus seen-item lists) back into
   request order;
2. **scatter (items)** — score the prepared user block against every
   item shard's partial index, each returning its local top-K in global
   item ids, already masked through the shared
   :mod:`repro.eval.masking` scatter;
3. **gather (merge)** — one vectorized sort of the per-shard partial
   lists laid side by side, keyed on ``(score desc, global item id
   asc)``.

Because every shard scores through the same scorer class and
fixed-shape panel kernel as the unsharded
:class:`~repro.serve.index.ExactTopKIndex` and ranking/merge both follow
the canonical ``(score desc, id asc)`` order of
:func:`repro.eval.metrics.rank_items`, the merged ranking — items *and*
scores — is bit-identical to the unsharded index
(``tests/test_serve_sharded.py`` pins this for every shard count ×
partition axis; the full contract is in ``docs/sharding.md``).

:class:`~repro.serve.service.RecommendationService` builds this router
as its index for every snapshot, the 1×1 set included, so sharded and
unsharded serving share one path: the same caching (keyed on the
snapshot's content hash), batching and merge.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np

from repro.obs.stats import RegistryBackedStats
from repro.obs.trace import get_tracer
from repro.serve.faults import _draw
from repro.serve.index import (PanelScorer, TopKResult, prepare_request,
                               scoring_ready_users)
from repro.serve.resilience import (BACKOFF_JITTER, BACKOFF_MS,
                                    BreakerOpenError, CircuitBreaker,
                                    ResilienceConfig, ShardCallError)
from repro.serve.shard import ItemShardIndex, ShardedSnapshot
from repro.tensor import parallel

__all__ = ["RouterStats", "ShardedTopKIndex"]


class RouterStats(RegistryBackedStats):
    """Cumulative scatter-gather timings and resilience counters.

    A registry-backed view (see
    :class:`~repro.obs.stats.RegistryBackedStats`): each field is a
    ``serve.router.<field>`` counter labeled per router instance, read
    attribute-style and bumped with ``stats.inc(field, amount)``.
    """

    _PREFIX = "serve.router"
    _COUNTERS = {
        "sweeps": "routed topk() sweeps",
        "users_routed": "users answered through the scatter-gather path",
        "gather_s": "seconds gathering user rows and seen lists",
        "score_s": "seconds in per-shard partial top-K scoring",
        "merge_s": "seconds in the k-way merge of shard partials",
        "retries": "resilient shard attempts retried after a failure",
        "hedges": "hedged backup attempts launched for straggler shards",
        "hedge_wins": "hedged backups that finished before their primary",
        "shard_failures": "shard calls that exhausted their deadline budget",
        "breaker_open_skips": "shard calls skipped on an open breaker",
        "degraded_chunks": "routed chunks merged with partial shard coverage",
    }


class ShardedTopKIndex:
    """Scatter-gather top-K index over a sharded snapshot.

    Implements the same ``topk`` protocol as
    :class:`~repro.serve.index.ExactTopKIndex`, so it plugs into
    :class:`~repro.serve.service.RecommendationService` unchanged.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.shard.ShardedSnapshot`.
    chunk_users:
        Users per scatter-gather pass; each shard scores the chunk in
        :data:`~repro.serve.index.ROW_BLOCK` row blocks.  Part of the
        parity contract: the unsharded index being compared against
        must use the same value (both default to 256), because the
        chunk fixes the row blocks and the BLAS panel kernel's bit
        pattern is pinned per (block, panel) shape.
    workers:
        Concurrent item-shard fan-out width.  ``None`` (default) picks
        ``min(num_item_shards, parallel.workers())``, the cores this
        process may run on; values ``<= 1`` score the shards
        sequentially.  The per-shard ``partial_topk`` calls release the
        GIL inside BLAS, so a thread pool genuinely overlaps shard
        scoring (with BLAS held at one thread while it does) — and
        because each shard's scores come from the same fixed-shape panel
        kernels regardless of which thread runs them, and the k-way
        merge consumes the partials in shard order, concurrent results
        are **bit-identical** to the sequential router (pinned by
        ``tests/test_serve_sharded.py``).
    resilience:
        Optional :class:`~repro.serve.resilience.ResilienceConfig`.
        When set, every shard call runs on a helper thread under a
        per-shard **deadline budget** with jittered retry/backoff,
        optional hedged backup attempts for stragglers, and (if
        ``resilience.breaker`` is set) a per-shard circuit breaker.  A
        shard that still fails yields an explicitly **degraded** result
        (``TopKResult.coverage`` < 1, unfillable ranks padded with item
        ``-1`` / score ``-inf``).  ``None`` (default) keeps the
        fail-stop fast path: no helper threads, no per-call overhead,
        bit-parity with the unsharded index exactly as before.
    """

    #: Tag recorded in benchmarks and service cache keys.  It names the
    #: answer set, not the code path: the router's lists and scores are
    #: bit-identical to :class:`~repro.serve.index.ExactTopKIndex`'s.
    kind = "exact"

    def __init__(self, snapshot: ShardedSnapshot,
                 chunk_users: int = 256,
                 workers: int | None = None,
                 resilience: ResilienceConfig | None = None):
        if chunk_users <= 0:
            raise ValueError(f"chunk_users must be positive, got {chunk_users}")
        self.snapshot = snapshot
        self.chunk_users = chunk_users
        self.shard_indexes = [
            ItemShardIndex(shard, PanelScorer(shard.embeddings,
                                              snapshot.scoring))
            for shard in snapshot.item_shards]
        # what ``refreshed`` passes on: ``None`` re-sizes to the new
        # snapshot's shard count
        self._workers_arg = workers
        if workers is None:
            workers = min(len(self.shard_indexes), parallel.workers())
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._attempt_pool: ThreadPoolExecutor | None = None
        self.stats = RouterStats()
        self.resilience = resilience
        self.breakers: list[CircuitBreaker] | None = None
        if resilience is not None and resilience.breaker is not None:
            self.breakers = [
                CircuitBreaker(resilience.breaker, name=f"shard:{s}")
                for s in range(len(self.shard_indexes))]

    # ------------------------------------------------------------------
    def refreshed(self, snapshot: ShardedSnapshot) -> "ShardedTopKIndex":
        """Rebuild the router over a new snapshot of any shard count,
        same knobs."""
        return type(self)(snapshot, chunk_users=self.chunk_users,
                          workers=self._workers_arg,
                          resilience=self.resilience)

    # ------------------------------------------------------------------
    def topk(self, user_ids, k: int = 10,
             filter_seen: bool = True) -> TopKResult:
        """Scatter-gather ranked recommendations for a batch of users.

        Same semantics as
        :meth:`repro.serve.index.ExactTopKIndex.topk`; the result is
        bit-identical to the unsharded index's answer for the same
        request.
        """
        users, k, out_items, out_scores = prepare_request(
            user_ids, k, self.snapshot.manifest)
        failed_union: set[int] = set()
        for lo in range(0, len(users), self.chunk_users):
            chunk = users[lo:lo + self.chunk_users]
            items, scores, failed = self._route_chunk(chunk, k, filter_seen)
            out_items[lo:lo + len(chunk)] = items
            out_scores[lo:lo + len(chunk)] = scores
            failed_union.update(failed)
        self.stats.inc("sweeps")
        self.stats.inc("users_routed", len(users))
        coverage = self._coverage(failed_union)
        return TopKResult(user_ids=users, items=out_items, scores=out_scores,
                          k=k, filtered_seen=filter_seen, coverage=coverage,
                          failed_shards=tuple(sorted(failed_union)))

    def _coverage(self, failed: set[int]) -> float:
        """Catalogue fraction actually scored given failed item shards."""
        if not failed:
            return 1.0
        num_items = self.snapshot.manifest.num_items
        lost = sum(len(self.shard_indexes[s].shard) for s in failed)
        return 1.0 - lost / num_items if num_items else 0.0

    # ------------------------------------------------------------------
    def _route_chunk(self, chunk: np.ndarray, k: int, filter_seen: bool
                     ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """One scatter-gather pass for up to ``chunk_users`` users.

        Returns ``(items, scores, failed_shards)``; the last element is
        empty except on the resilient path when a shard exhausted its
        deadline budget (a degraded merge).
        """
        t0 = time.perf_counter()
        vectors = scoring_ready_users(
            self.snapshot.gather_user_rows(chunk), self.snapshot.scoring)
        if filter_seen:
            seen_indptr, seen_global = self.snapshot.gather_seen(chunk)
        else:
            seen_indptr, seen_global = None, None
        t1 = time.perf_counter()

        def call(index):
            return index.partial_topk(vectors, k, seen_indptr, seen_global)

        def shard_call(s):
            # The shard is looked up when its call runs: fault harnesses
            # swap entries of ``shard_indexes`` after construction.
            if self.resilience is None:
                return call(self.shard_indexes[s])
            return self._guard_shard(s, call)

        shard_ids = range(len(self.shard_indexes))
        if self.workers > 1 and len(self.shard_indexes) > 1:
            # Concurrent fan-out: the pool maps over shards in order, so
            # the merge below consumes partials exactly as the
            # sequential path would — parity stays bit-identical.  The
            # pool's threads are the cores' workers, so BLAS gets one.
            with parallel.one_blas_thread():
                partials = list(self._fanout_pool().map(shard_call,
                                                        shard_ids))
        else:
            partials = [shard_call(s) for s in shard_ids]
        failed = tuple(s for s, p in enumerate(partials) if p is None)
        t2 = time.perf_counter()
        if failed:
            self.stats.inc("degraded_chunks")
            survivors = [p for p in partials if p is not None]
            if survivors:
                items, scores = _merge_partials(survivors, k,
                                                allow_underflow=True)
            else:
                items = np.full((len(chunk), k), -1, dtype=np.int64)
                scores = np.full((len(chunk), k), -np.inf, dtype=np.float64)
        else:
            items, scores = _merge_partials(partials, k)
        t3 = time.perf_counter()
        tracer = get_tracer()
        if tracer.enabled:
            # Spans reuse the exact t0..t3 readings that feed the stats
            # counters, so trace and counters cannot drift.
            tracer.record("serve.router.gather", t0, t1, users=len(chunk))
            tracer.record("serve.router.score", t1, t2,
                          shards=len(self.shard_indexes))
            tracer.record("serve.router.merge", t2, t3)
        self.stats.inc("gather_s", t1 - t0)
        self.stats.inc("score_s", t2 - t1)
        self.stats.inc("merge_s", t3 - t2)
        return items, scores, failed

    # ------------------------------------------------------------------
    # Resilient shard calls (deadlines, retries, hedging, breakers)
    # ------------------------------------------------------------------
    def _guard_shard(self, s: int, call):
        """One shard's resilient call.  Never raises for a failing
        shard: its partial comes back ``None``."""
        try:
            return self._call_shard(s, call)
        except ShardCallError:
            self.stats.inc("shard_failures")
            return None

    def _call_shard(self, s: int, call):
        """Retry loop for one shard under its total deadline budget.

        The budget spans *all* attempts (including backoff pauses), so a
        failing shard can never stall the chunk for ``retries`` full
        deadlines.  Each attempt draws fresh fault-plan / jitter
        decisions; the breaker observes only the final verdict — one
        call, one success-or-failure, however many attempts it took.
        """
        cfg = self.resilience
        breaker = self.breakers[s] if self.breakers is not None else None
        if breaker is not None and not breaker.allow():
            self.stats.inc("breaker_open_skips")
            raise BreakerOpenError(f"shard {s} circuit breaker is open")
        index = self.shard_indexes[s]
        deadline = time.monotonic() + cfg.deadline_ms / 1e3
        last_error: BaseException | None = None
        for attempt in range(cfg.retries + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if attempt:
                self.stats.inc("retries")
            try:
                result = self._attempt(index, call, remaining)
                if breaker is not None:
                    breaker.record_success()
                return result
            except TimeoutError as exc:
                last_error = exc
                break  # the straggler consumed the whole budget
            except Exception as exc:  # noqa: BLE001 — shard errors retry
                last_error = exc
                if attempt < cfg.retries:
                    # Deterministic jittered backoff: keyed on (shard,
                    # attempt) so shards decorrelate without a shared
                    # RNG stream (replays stay bit-identical).
                    spread = 2.0 * _draw(cfg.seed, f"backoff:{s}",
                                         attempt, 0) - 1.0
                    pause = BACKOFF_MS / 1e3 * (1.0 + BACKOFF_JITTER * spread)
                    budget = deadline - time.monotonic()
                    if budget > 0:
                        time.sleep(min(pause, budget))
        if breaker is not None:
            breaker.record_failure()
        raise ShardCallError(
            f"shard {s} failed within its {cfg.deadline_ms:g} ms "
            f"deadline budget") from last_error

    def _attempt(self, index, call, budget_s: float):
        """One (possibly hedged) attempt, bounded by ``budget_s``.

        The call runs on the attempt pool so a straggler can be
        *abandoned* at the deadline (a stuck BLAS call cannot be
        interrupted — the worker finishes in the background and its
        thread returns to the pool).  With hedging configured, a backup
        attempt launches after ``hedge_ms`` and whichever finishes
        first with a result wins.
        """
        cfg = self.resilience
        pool = self._attempts_pool()
        deadline = time.monotonic() + budget_s
        primary = pool.submit(call, index)
        pending = {primary}
        backup = None
        last_error: BaseException | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("shard attempt exceeded its budget")
            timeout = remaining
            if cfg.hedge_ms is not None and backup is None:
                timeout = min(timeout, cfg.hedge_ms / 1e3)
            done, _ = wait(pending, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                pending.discard(future)
                exc = future.exception()
                if exc is None:
                    if backup is not None and future is backup:
                        self.stats.inc("hedge_wins")
                    return future.result()
                last_error = exc
            if not pending:
                # Every launched attempt failed fast — let the retry
                # loop decide whether to go again.
                raise last_error
            if cfg.hedge_ms is not None and backup is None and not done:
                # The primary is a straggler: hedge it with a backup
                # drawing fresh decisions (the fault that slowed the
                # primary need not slow the backup).
                self.stats.inc("hedges")
                backup = pool.submit(call, index)
                pending.add(backup)

    def _fanout_pool(self) -> ThreadPoolExecutor:
        """Lazily created, reused thread pool for the shard fan-out."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="shard-fanout")
        return self._pool

    def _attempts_pool(self) -> ThreadPoolExecutor:
        """Pool running individual resilient attempts (sized for every
        shard to hedge at once, plus headroom for abandoned stragglers
        still draining)."""
        if self._attempt_pool is None:
            self._attempt_pool = ThreadPoolExecutor(
                max_workers=2 * len(self.shard_indexes) + 2,
                thread_name_prefix="shard-attempt")
        return self._attempt_pool

    def close(self) -> None:
        """Shut down the fan-out pools (idempotent; router stays usable —
        the next concurrent route simply opens fresh pools)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._attempt_pool is not None:
            self._attempt_pool.shutdown(wait=True)
            self._attempt_pool = None

    def __repr__(self) -> str:
        m = self.snapshot.manifest
        return (f"ShardedTopKIndex(kind={self.kind!r}, "
                f"item_shards={m.num_item_shards}, "
                f"user_shards={m.num_user_shards}, "
                f"workers={self.workers}, "
                f"snapshot={m.version!r})")


def _merge_partials(partials: list[tuple[np.ndarray, np.ndarray]],
                    k: int, allow_underflow: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard partial top-K lists into the first ``k`` ranks.

    Each partial is ``(global_ids, scores)`` of shape ``(m, k_s)``.  The
    partials are laid side by side and each row is sorted once by the
    canonical ``(score desc, id asc)`` order (one ``lexsort`` over the
    whole ``(m, sum_s k_s)`` block), so the first ``k`` columns equal
    the unsharded canonical ranking truncated at ``k``.

    **Underflow invariant.**  Every contract-abiding partial carries
    ``k_s = min(k, len(shard_s))`` columns, and ``k`` is clipped to the
    catalogue size upstream, so the total candidate count satisfies
    ``sum_s min(k, n_s) >= min(k, sum_s n_s) = k`` — the merge cannot
    run out of candidates before rank ``k``
    (``tests/test_serve_sharded.py`` proves it).  A partial narrower
    than its contract width is therefore a caller bug, and the guard
    below fails loudly instead of returning a short list.

    **Degraded merges** are the one sanctioned exception: when the
    resilient router drops failed shards, the survivors may genuinely
    hold fewer than ``k`` candidates.  ``allow_underflow=True`` pads
    the unfillable ranks with item ``-1`` / score ``-inf`` — an
    explicit hole, never a silently re-ranked shorter list.
    """
    total = sum(ids.shape[1] for ids, _ in partials)
    if total < k and not allow_underflow:
        raise ValueError(
            f"partial top-K underflow: {total} candidates across "
            f"{len(partials)} shards cannot fill k={k}; every "
            f"partial must carry min(k, shard_size) columns")
    ids = np.concatenate([ids for ids, _ in partials], axis=1)
    scores = np.concatenate([scores for _, scores in partials], axis=1)
    order = np.lexsort((ids, -scores), axis=-1)[:, :k]
    out_items = np.take_along_axis(ids, order, axis=-1)
    out_scores = np.take_along_axis(scores, order, axis=-1)
    if total < k:
        m, pad = len(ids), k - total
        out_items = np.concatenate(
            [out_items, np.full((m, pad), -1, dtype=np.int64)], axis=1)
        out_scores = np.concatenate(
            [out_scores, np.full((m, pad), -np.inf, dtype=np.float64)],
            axis=1)
    return out_items, out_scores
