"""IVF candidate generation: coarse quantizer, inverted lists, search.

An IVF index partitions the (scoring-ready) item table with the repo's
own k-means into ``nlist`` clusters and keeps one **inverted list** of
global item ids per cluster.  A request probes the ``nprobe`` lists
whose centroids score highest for the user, and only the items in the
probed lists become candidates.

Three properties make this a drop-in backend for the serving stack:

* **Exact re-scoring.**  Candidates are scored with the same
  fixed-shape panel GEMMs (:func:`repro.serve.index.panel_scores`) and
  the same canonical ranking (:func:`repro.eval.metrics.rank_items`)
  as :class:`~repro.serve.index.ExactTopKIndex` — the approximation is
  only in *which* items get scored, never in the returned scores.
  With ``nprobe == nlist`` every item is a candidate, the assembled
  score block *is* the exact index's score block, and items and scores
  come out bit-identical.
* **Over-fetch.**  When ``filter_seen`` is on, each user's probe count
  is expanded past ``nprobe`` until the probed lists hold at least
  ``k + |seen(u)|`` postings, so masking the user's training items can
  never starve the top-``k``.
* **Signature grouping.**  Users in a request chunk whose probe sets
  coincide (a *probe signature*) are scored together against one
  cached, ascending-id, zero-padded panel block — assembling candidate
  rows with row-wise copies instead of per-element gathers.  Because a
  signature's candidate ids are sorted ascending, :func:`rank_items`'
  tie order coincides with the global canonical ``(score desc, id
  asc)`` order by construction.

For serving a fixed user population the per-user probe selection is
itself static, so :class:`IVFFlatIndex` memoizes a **routing table**
per ``(k, nprobe, filter_seen)`` — each user's signature and the
positions of their seen items inside the signature's candidate array —
the offline-refreshed candidate routing of industrial two-stage
recommenders.  The routed and dynamically-planned paths return
identical results (pinned by ``tests/test_ann.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.kmeans import kmeans, sq_dists
from repro.eval.metrics import rank_items
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.serve.index import (TopKResult, build_panels, panel_scores,
                               prepare_request, scoring_ready_items,
                               scoring_ready_users)
from repro.serve.snapshot import EmbeddingSnapshot

__all__ = ["ANN_PANEL_WIDTH", "train_coarse_quantizer", "assign_lists",
           "IVFIndexData", "ProbePlan", "IVFFlatIndex"]

#: Default item-panel width of the candidate re-scoring GEMMs.  Narrower
#: than :data:`repro.serve.index.PANEL_WIDTH` because candidate sets are
#: small; parity comparisons must pin the same width on both sides.
ANN_PANEL_WIDTH = 128


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def train_coarse_quantizer(items_ready: np.ndarray, nlist: int,
                           seed: int = 0, n_iter: int = 25
                           ) -> tuple[np.ndarray, np.ndarray]:
    """K-means the scoring-ready item table into ``nlist`` clusters.

    Returns ``(centroids, labels)``.  Deterministic for a given
    ``(items, nlist, seed, n_iter)`` — the seed feeds a fresh
    ``numpy.random.default_rng``, which is what makes index builds
    byte-reproducible (see ``docs/ann.md``).
    """
    if not 1 <= nlist <= len(items_ready):
        raise ValueError(f"need 1 <= nlist <= {len(items_ready)}, "
                         f"got {nlist}")
    return kmeans(items_ready, nlist, n_iter=n_iter,
                  rng=np.random.default_rng(seed))


def _spill_owners(d: np.ndarray, spill: int) -> np.ndarray:
    """``(n, spill)`` nearest-centroid indices per row of distances ``d``."""
    if spill == 1:
        return d.argmin(axis=1)[:, None]
    part = np.argpartition(d, spill - 1, axis=1)[:, :spill]
    order = np.take_along_axis(d, part, axis=1).argsort(
        axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1)


def assign_lists(items_ready: np.ndarray, centroids: np.ndarray,
                 spill: int = 1) -> list[np.ndarray]:
    """Assign every item to its ``spill`` nearest centroids.

    ``spill == 1`` is plain IVF; larger values store each item
    redundantly in several lists (ScaNN-style spilling), trading index
    size for recall at small ``nprobe``.  Every returned list is sorted
    ascending in global item id — the property that keeps signature
    candidate arrays globally canonical.
    """
    nlist = len(centroids)
    if not 1 <= spill <= nlist:
        raise ValueError(f"need 1 <= spill <= nlist={nlist}, got {spill}")
    owners = _spill_owners(sq_dists(items_ready, centroids), spill)
    return [np.sort(np.flatnonzero((owners == c).any(axis=1))).astype(
        np.int64) for c in range(nlist)]


# ----------------------------------------------------------------------
# Index data (centroids + inverted lists)
# ----------------------------------------------------------------------
class IVFIndexData:
    """Centroids plus inverted lists, with the probe-planning machinery.

    This is the persistent part of an IVF index (what
    :mod:`repro.ann.build` writes to disk) and the candidate generator
    the sharded router consumes.  It holds no user or item embeddings —
    scoring objects (:class:`IVFFlatIndex`,
    :class:`~repro.serve.router.ShardedTopKIndex`) bring their own.

    Parameters
    ----------
    centroids:
        ``(nlist, dim)`` float64 coarse-quantizer centroids in
        scoring-ready space.
    list_indptr, list_items:
        CSR layout of the inverted lists: list ``c`` holds global item
        ids ``list_items[list_indptr[c]:list_indptr[c + 1]]``, sorted
        ascending.
    num_items:
        Catalogue size (bounds the stored ids).
    default_nprobe:
        Probe count used when a search does not specify one.
    """

    def __init__(self, centroids: np.ndarray, list_indptr: np.ndarray,
                 list_items: np.ndarray, num_items: int,
                 default_nprobe: int = 2):
        centroids = np.asarray(centroids, dtype=np.float64)
        list_indptr = np.asarray(list_indptr, dtype=np.int64)
        list_items = np.asarray(list_items, dtype=np.int64)
        if centroids.ndim != 2:
            raise ValueError("centroids must be 2-D")
        if len(list_indptr) != len(centroids) + 1:
            raise ValueError("list_indptr length must be nlist + 1")
        if list_indptr[0] != 0 or list_indptr[-1] != len(list_items):
            raise ValueError("list_indptr does not span list_items")
        if not np.all(np.diff(list_indptr) >= 0):
            raise ValueError("list_indptr is not monotone")
        if len(list_items) and (list_items.min() < 0
                                or list_items.max() >= num_items):
            raise ValueError("list_items contains out-of-range item ids")
        if not 1 <= default_nprobe <= len(centroids):
            raise ValueError(f"need 1 <= default_nprobe <= nlist, "
                             f"got {default_nprobe}")
        covered = np.unique(list_items)
        if len(covered) != num_items:
            raise ValueError(f"inverted lists cover {len(covered)} of "
                             f"{num_items} items; every item must appear "
                             f"in at least one list")
        self.centroids = centroids
        self.list_indptr = list_indptr
        self.list_items = list_items
        self.num_items = int(num_items)
        self.default_nprobe = int(default_nprobe)
        self.sizes = np.diff(list_indptr)
        #: most lists any single item appears in; the over-fetch
        #: expansion scales by this so posting counts (which count a
        #: spilled item once per list) still bound unique candidates
        self.max_spill = int(np.bincount(
            list_items, minlength=num_items).max()) if len(list_items) else 1
        #: probe signature -> (candidate ids asc, posting rows into
        #: ``list_items`` aligned with the ids)
        self._signatures: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        #: (items token, signature, panel width) -> panel block
        self._panels: dict[tuple, np.ndarray] = {}
        #: token of the snapshot generation the cached panels belong to
        self._panels_token: str | None = None

    @property
    def nlist(self) -> int:
        """Number of inverted lists (coarse-quantizer clusters)."""
        return len(self.centroids)

    @property
    def spill(self) -> int:
        """Ceil of the average number of lists holding each item."""
        return -(-len(self.list_items) // self.num_items)

    @property
    def table_bytes(self) -> int:
        """Bytes held by centroids and inverted lists (not panels)."""
        return (self.centroids.nbytes + self.list_indptr.nbytes
                + self.list_items.nbytes)

    def list_ids(self, c: int) -> np.ndarray:
        """Global item ids of inverted list ``c`` (ascending)."""
        return self.list_items[self.list_indptr[c]:self.list_indptr[c + 1]]

    # ------------------------------------------------------------------
    def signature(self, clusters: tuple[int, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ids (ascending, deduplicated) of a probe set.

        Returns ``(ids, posting_rows)`` where ``posting_rows[j]`` is the
        flat index into ``list_items`` that contributed ``ids[j]`` (the
        first occurrence when spilling stores an item in several probed
        lists) — the alignment the PQ codes need.  Memoized: request
        streams revisit a handful of signatures.
        """
        key = np.asarray(clusters, dtype=np.int64).tobytes()
        hit = self._signatures.get(key)
        if hit is None:
            rows = np.concatenate(
                [np.arange(self.list_indptr[c], self.list_indptr[c + 1])
                 for c in clusters]) if clusters else np.empty(0, np.int64)
            ids, first = np.unique(self.list_items[rows],
                                   return_index=True)
            hit = (ids, rows[first])
            self._signatures[key] = hit
        return hit

    def panels_for(self, clusters: tuple[int, ...], items_ready: np.ndarray,
                   width: int, token: str | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ids plus their fixed-width scoring panels.

        The panel block packs the signature's item rows (ascending
        global id) into zero-padded ``width``-row panels via the shared
        :func:`~repro.serve.index.build_panels`, so every re-scoring
        GEMM has the same shape — the partition-invariance property the
        bit-parity contract rides on.

        ``token`` must identify the *content* of ``items_ready``
        (serving indexes pass their ``snapshot.version``): panels bake
        item rows in, so an index data object shared across snapshot
        generations — exactly what a live refresh produces — must never
        serve a panel built from the previous generation's rows.
        """
        ids, _ = self.signature(clusters)
        if token != self._panels_token:
            # a new generation took over: its predecessor's panels can
            # never be served again, so reclaim their memory eagerly
            self._panels.clear()
            self._panels_token = token
        key = (token, np.asarray(clusters, dtype=np.int64).tobytes(), width)
        panels = self._panels.get(key)
        if panels is None:
            panels = build_panels(items_ready[ids], width)
            self._panels[key] = panels
        return ids, panels

    # ------------------------------------------------------------------
    # Incremental maintenance (live-index refresh)
    # ------------------------------------------------------------------
    def updated(self, old_to_new: np.ndarray, added: np.ndarray,
                items_ready: np.ndarray, num_items: int,
                *, changed: np.ndarray | None = None,
                spill: int | None = None
                ) -> tuple["IVFIndexData", np.ndarray]:
        """Posting-list insert/delete for one snapshot transition.

        ``old_to_new`` maps every old dense item id to its new dense id
        (``-1`` = deleted); ``added`` lists new dense ids with no old
        counterpart; ``items_ready`` is the **new** generation's
        scoring-ready item table (see
        :func:`repro.serve.delta.item_transition`).  Surviving postings
        are remapped in place — an upserted row *stays* in its old
        lists, which is what the :meth:`staleness` meter measures —
        deleted postings are dropped, and each added item is inserted
        into its ``spill`` nearest centroids (default: this index's
        spill factor).  Lists stay sorted ascending in new dense id.

        Returns ``(data, code_map)`` where ``code_map[p]`` is the old
        posting row that new posting ``p`` carries over, or ``-1`` if
        the posting needs fresh PQ encoding (inserted items, plus any
        ids in ``changed`` — surviving items whose embedding row moved,
        which keeps their postings but invalidates their residuals).
        """
        old_to_new = np.asarray(old_to_new, dtype=np.int64)
        if len(old_to_new) != self.num_items:
            raise ValueError(f"old_to_new has {len(old_to_new)} entries for "
                             f"{self.num_items} items")
        added = np.asarray(added, dtype=np.int64)
        items_ready = np.asarray(items_ready, dtype=np.float64)
        if len(items_ready) != num_items:
            raise ValueError(f"items_ready holds {len(items_ready)} rows "
                             f"but num_items is {num_items}")
        owner = np.repeat(np.arange(self.nlist, dtype=np.int64), self.sizes)
        mapped = old_to_new[self.list_items]
        keep = mapped >= 0
        lists_all = owner[keep]
        ids_all = mapped[keep]
        src_all = np.flatnonzero(keep).astype(np.int64)
        if len(added):
            spill = max(1, self.spill) if spill is None else int(spill)
            spill = min(spill, self.nlist)
            owners = _spill_owners(
                sq_dists(items_ready[added], self.centroids), spill)
            lists_all = np.concatenate([lists_all, owners.ravel()])
            ids_all = np.concatenate([ids_all,
                                      np.repeat(added, owners.shape[1])])
            src_all = np.concatenate([src_all,
                                      np.full(owners.size, -1, np.int64)])
        order = np.lexsort((ids_all, lists_all))
        lists_all, ids_all = lists_all[order], ids_all[order]
        code_map = src_all[order]
        if changed is not None and len(changed):
            code_map = np.where(
                np.isin(ids_all, np.asarray(changed, dtype=np.int64)),
                -1, code_map)
        indptr = np.concatenate([
            np.zeros(1, np.int64),
            np.cumsum(np.bincount(lists_all, minlength=self.nlist))])
        data = IVFIndexData(self.centroids, indptr, ids_all, num_items,
                            self.default_nprobe)
        get_registry().counter(
            "ann.ivf.incremental_updates",
            "posting-list maintenance passes (updated())").inc()
        return data, code_map

    def staleness(self, items_ready: np.ndarray) -> float:
        """Fraction of items whose nearest centroid no longer owns them.

        An item is *fresh* if any of the lists holding it is its
        nearest centroid (the same squared-distance geometry
        :func:`assign_lists` uses).  A freshly built index has
        staleness 0; churn raises it as upserted rows drift away from
        the lists they were filed under and inserted rows pull
        centroids nowhere — the trigger for :meth:`reclustered`.
        """
        if not len(self.list_items):
            return 0.0
        nearest = sq_dists(np.asarray(items_ready, dtype=np.float64),
                           self.centroids).argmin(axis=1)
        owner = np.repeat(np.arange(self.nlist, dtype=np.int64), self.sizes)
        fresh = np.zeros(self.num_items, dtype=bool)
        fresh[self.list_items[owner == nearest[self.list_items]]] = True
        value = float(1.0 - fresh.sum() / self.num_items)
        get_registry().gauge(
            "ann.ivf.staleness",
            "fraction of items filed away from their nearest "
            "centroid, last measured").set(value)
        return value

    def reclustered(self, items_ready: np.ndarray, *, lists: int = 1
                    ) -> tuple["IVFIndexData", np.ndarray]:
        """Partially re-cluster the ``lists`` stalest inverted lists.

        Stale postings (owning list != nearest centroid) of the worst
        offenders move to their nearest list — unless the item already
        has a posting there, in which case it stays put so no duplicate
        posting appears in one list — and every affected centroid
        (drained or receiving) is re-centered on its new members.  A
        full k-means pass is never run: cost scales with the moved
        lists, not the catalogue.

        Returns ``(data, code_map)``; re-centering changes the residual
        base of *every* posting in an affected list, so those all come
        back ``-1`` (fresh PQ encoding required).
        """
        items_ready = np.asarray(items_ready, dtype=np.float64)
        nearest = sq_dists(items_ready, self.centroids).argmin(axis=1)
        owner = np.repeat(np.arange(self.nlist, dtype=np.int64), self.sizes)
        stale = owner != nearest[self.list_items]
        per_list = np.bincount(owner[stale], minlength=self.nlist)
        worst = np.argsort(-per_list, kind="stable")[:max(int(lists), 0)]
        worst = worst[per_list[worst] > 0]
        if not len(worst):
            return self, np.arange(len(self.list_items), dtype=np.int64)
        move = stale & np.isin(owner, worst)
        # moving a spilled item into a list that already holds it would
        # create a duplicate posting; keep those in place
        keys = owner * np.int64(self.num_items) + self.list_items
        target = (nearest[self.list_items] * np.int64(self.num_items)
                  + self.list_items)
        move &= ~np.isin(target, keys)
        new_owner = np.where(move, nearest[self.list_items], owner)
        affected = np.unique(np.concatenate([worst, new_owner[move]]))
        centroids = self.centroids.copy()
        for c in affected:
            members = np.unique(self.list_items[new_owner == c])
            if len(members):
                centroids[c] = items_ready[members].mean(axis=0)
        order = np.lexsort((self.list_items, new_owner))
        items_new = self.list_items[order]
        lists_new = new_owner[order]
        indptr = np.concatenate([
            np.zeros(1, np.int64),
            np.cumsum(np.bincount(lists_new, minlength=self.nlist))])
        code_map = np.where(np.isin(lists_new, affected), -1,
                            order.astype(np.int64))
        data = IVFIndexData(centroids, indptr, items_new, self.num_items,
                            self.default_nprobe)
        registry = get_registry()
        registry.counter(
            "ann.ivf.reclusters",
            "partial re-clustering passes that moved postings").inc()
        registry.counter(
            "ann.ivf.reclustered_lists",
            "inverted lists drained by partial re-clustering").inc(
            len(worst))
        return data, code_map

    # ------------------------------------------------------------------
    def plan(self, vectors: np.ndarray, seen_counts: np.ndarray, k: int,
             nprobe: int | None = None, filter_seen: bool = True,
             scoring: str = "inner") -> "ProbePlan":
        """Select probed lists for a block of prepared user vectors.

        Lists are ranked per user by centroid score under the
        snapshot's ``scoring`` (inner/cosine: the dot product with the
        already-transformed ``vectors``; euclidean: negated squared
        distance), descending, ties broken by the smaller list index.
        The probe count starts at ``nprobe`` and expands per user until
        the probed lists hold at least ``k + seen_counts[u]`` postings
        (``k`` when ``filter_seen`` is off) — the over-fetch guarantee.
        """
        nprobe = self.default_nprobe if nprobe is None else nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"need 1 <= nprobe <= nlist={self.nlist}, "
                             f"got {nprobe}")
        m = len(vectors)
        if scoring == "euclidean":
            scores = -sq_dists(vectors, self.centroids)
        else:
            scores = vectors @ self.centroids.T
        order = np.argsort(-scores, axis=1, kind="stable")
        cum = np.cumsum(self.sizes[order], axis=1)
        need = np.full(m, k, dtype=np.int64)
        if filter_seen:
            need = need + np.asarray(seen_counts, dtype=np.int64)
        need = need * self.max_spill
        p = np.maximum(nprobe, 1 + (cum < need[:, None]).sum(axis=1))
        p = np.minimum(p, self.nlist)
        pmax = int(p.max()) if m else nprobe
        probes = np.where(np.arange(pmax)[None, :] < p[:, None],
                          order[:, :pmax], self.nlist)
        probes.sort(axis=1)
        uniq, first, inverse = np.unique(probes, axis=0, return_index=True,
                                         return_inverse=True)
        signatures = []
        for g in range(len(uniq)):
            clusters = uniq[g]
            signatures.append(tuple(int(c) for c in clusters[
                clusters < self.nlist]))
        return ProbePlan(signatures=signatures,
                         group_of_row=inverse.ravel().astype(np.int64))

    def candidates_csr(self, vectors: np.ndarray, seen_counts: np.ndarray,
                       k: int, nprobe: int | None = None,
                       filter_seen: bool = True, scoring: str = "inner"
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-user candidate ids, CSR layout, ascending global ids.

        The candidate-generator API the sharded router consumes: row
        ``r`` of the request block may only be served items in
        ``ids[indptr[r]:indptr[r + 1]]``.
        """
        plan = self.plan(vectors, seen_counts, k, nprobe, filter_seen,
                         scoring)
        group_ids = [self.signature(sig)[0] for sig in plan.signatures]
        lengths = np.array([len(group_ids[g]) for g in plan.group_of_row],
                           dtype=np.int64)
        indptr = np.concatenate([np.zeros(1, np.int64), np.cumsum(lengths)])
        ids = (np.concatenate([group_ids[g] for g in plan.group_of_row])
               if len(lengths) else np.empty(0, np.int64))
        return indptr, ids


class ProbePlan:
    """Probe signatures chosen for one request block.

    ``signatures[group_of_row[r]]`` is the tuple of probed list indices
    of request row ``r``; rows sharing a signature share one candidate
    set and one scoring GEMM.
    """

    __slots__ = ("signatures", "group_of_row")

    def __init__(self, signatures: list[tuple[int, ...]],
                 group_of_row: np.ndarray):
        self.signatures = signatures
        self.group_of_row = group_of_row

    def rows_by_group(self) -> list[np.ndarray]:
        """Request rows of each signature group, ascending."""
        order = np.argsort(self.group_of_row, kind="stable")
        bounds = np.searchsorted(self.group_of_row[order],
                                 np.arange(len(self.signatures) + 1))
        return [order[bounds[g]:bounds[g + 1]]
                for g in range(len(self.signatures))]


# ----------------------------------------------------------------------
# IVF-Flat serving index
# ----------------------------------------------------------------------
class IVFFlatIndex:
    """Approximate top-K retrieval: IVF candidates, exact re-scoring.

    Implements the :class:`~repro.serve.index.TopKIndex` protocol
    (``topk`` / ``kind`` / ``snapshot`` / ``table_bytes``), so it plugs
    into :class:`~repro.serve.service.RecommendationService` as a
    drop-in index backend.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.snapshot.EmbeddingSnapshot` the
        index was built from (provides user vectors, item rows for the
        re-scoring panels, and the seen-item CSR).
    data:
        Trained :class:`IVFIndexData` (centroids + inverted lists).
    nprobe:
        Lists probed per user before over-fetch expansion (default:
        the index's ``default_nprobe``).
    chunk_users:
        Users planned/scored per block; larger chunks amortize probe
        planning, the default suits throughput-oriented streams.
    panel_width:
        Width of the candidate re-scoring panels.  Bit-parity
        comparisons must pin the same width on the exact side
        (``ExactTopKIndex(panel_width=...)``).
    routed:
        Memoize per-user routing tables (signature + localized seen
        positions) per ``(k, nprobe, filter_seen)``.  Identical results
        to dynamic planning; disable to force the dynamic path.
    """

    kind = "ivf"

    def __init__(self, snapshot: EmbeddingSnapshot, data: IVFIndexData,
                 nprobe: int | None = None, chunk_users: int = 1024,
                 panel_width: int = ANN_PANEL_WIDTH, routed: bool = True):
        if chunk_users <= 0:
            raise ValueError(f"chunk_users must be positive, got {chunk_users}")
        if panel_width <= 0:
            raise ValueError(f"panel_width must be positive, got {panel_width}")
        if data.num_items != snapshot.manifest.num_items:
            raise ValueError(
                f"index covers {data.num_items} items but snapshot has "
                f"{snapshot.manifest.num_items}")
        self.snapshot = snapshot
        self.data = data
        self.nprobe = data.default_nprobe if nprobe is None else int(nprobe)
        if not 1 <= self.nprobe <= data.nlist:
            raise ValueError(f"need 1 <= nprobe <= nlist={data.nlist}, "
                             f"got {self.nprobe}")
        self.chunk_users = chunk_users
        self.panel_width = panel_width
        self.routed = routed
        self._items_ready = scoring_ready_items(snapshot.items,
                                                snapshot.scoring)
        self._item_sq = ((self._items_ready ** 2).sum(axis=1)
                         if snapshot.scoring == "euclidean" else None)
        self._seen_counts = np.diff(snapshot.seen_indptr).astype(np.int64)
        #: (k, nprobe, filter_seen) -> routing table over all users;
        #: bounded (insertion-order eviction) because ``k`` is
        #: caller-controlled and each table spans the population
        self._routing: dict[tuple, "_RoutingTable"] = {}
        registry = get_registry()
        # Process-wide aggregates (no per-index labels): every IVF
        # instance feeds the same probe/candidate counters.
        self._ctr_queries = registry.counter(
            "ann.ivf.queries", "users answered through IVF retrieval")
        self._ctr_candidates = registry.counter(
            "ann.ivf.candidates",
            "candidate score slots assembled (sum of per-user "
            "candidate-set widths)")

    #: distinct (k, nprobe, filter_seen) routing tables kept per index
    MAX_ROUTING_TABLES = 8

    @property
    def table_bytes(self) -> int:
        """Bytes held by quantizer, lists and cached signature panels."""
        return (self.data.table_bytes
                + sum(p.nbytes for p in self.data._panels.values()))

    # ------------------------------------------------------------------
    def topk(self, user_ids, k: int = 10,
             filter_seen: bool = True) -> TopKResult:
        """Rank each user's candidate set and keep the top ``k``.

        Same request semantics as
        :meth:`repro.serve.index.TopKIndex.topk`; the returned scores
        are exact panel-GEMM scores of the candidate items, so they are
        directly comparable to (and with ``nprobe == nlist``,
        bit-identical to) the exact index's scores.
        """
        users, k, out_items, out_scores = prepare_request(
            user_ids, k, self.snapshot.manifest)
        for lo in range(0, len(users), self.chunk_users):
            chunk = users[lo:lo + self.chunk_users]
            items, scores = self._chunk_topk(chunk, k, filter_seen)
            out_items[lo:lo + len(chunk)] = items
            out_scores[lo:lo + len(chunk)] = scores
        return TopKResult(user_ids=users, items=out_items, scores=out_scores,
                          k=k, filtered_seen=filter_seen)

    # ------------------------------------------------------------------
    def _refreshed_data(self, snapshot: EmbeddingSnapshot,
                        staleness_threshold: float | None,
                        recluster_lists: int):
        """Incremental index data for a new snapshot generation.

        Returns ``(data, code_map, items_ready)``; ``code_map`` composes
        the posting remap with any partial re-clustering, so subclasses
        carrying per-posting payloads (PQ codes) know exactly which
        postings survived untouched.
        """
        from repro.serve.delta import item_transition
        old_to_new, added, changed = item_transition(self.snapshot, snapshot)
        items_ready = scoring_ready_items(np.asarray(snapshot.items),
                                          snapshot.scoring)
        data, code_map = self.data.updated(
            old_to_new, added, items_ready, snapshot.manifest.num_items,
            changed=changed)
        if (staleness_threshold is not None
                and data.staleness(items_ready) > staleness_threshold):
            data, remap = data.reclustered(items_ready, lists=recluster_lists)
            code_map = np.where(remap >= 0,
                                code_map[np.maximum(remap, 0)], -1)
        return data, code_map, items_ready

    def refreshed(self, snapshot: EmbeddingSnapshot, *,
                  staleness_threshold: float | None = 0.5,
                  recluster_lists: int = 1) -> "IVFFlatIndex":
        """Incrementally rebuilt index serving a new snapshot generation.

        Posting lists are maintained in place from the dense-id
        transition between the generations (deletes dropped, inserts
        filed under their nearest centroids, upserts left in their old
        lists); when the :meth:`IVFIndexData.staleness` meter crosses
        ``staleness_threshold`` the ``recluster_lists`` worst lists are
        partially re-clustered.  Pass ``staleness_threshold=None`` to
        never re-cluster.  The original index is untouched — refresh is
        a swap, not a mutation.
        """
        data, _, _ = self._refreshed_data(snapshot, staleness_threshold,
                                          recluster_lists)
        return type(self)(snapshot, data,
                          nprobe=min(self.nprobe, data.nlist),
                          chunk_users=self.chunk_users,
                          panel_width=self.panel_width, routed=self.routed)

    def _routing_for(self, k: int, filter_seen: bool) -> "_RoutingTable":
        # the snapshot version is part of the key so a refresh (which
        # swaps the snapshot a service points at) can never resolve a
        # user through the previous generation's probe routing
        key = (self.snapshot.version, k, self.nprobe, filter_seen)
        table = self._routing.get(key)
        if table is None:
            table = _RoutingTable.build(self, k, filter_seen)
            while len(self._routing) >= self.MAX_ROUTING_TABLES:
                self._routing.pop(next(iter(self._routing)))
            self._routing[key] = table
        return table

    def _chunk_topk(self, users: np.ndarray, k: int, filter_seen: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one user chunk: plan → assemble → mask → rank.

        Rows are processed in **group-contiguous order** (users of one
        signature occupy a contiguous slice of the score block, groups
        sorted by candidate count), so assembling the block is plain
        slice copies and ranking can run per width bucket — the final
        results are scattered back to request order at the end.  Every
        IVF kind runs this; a subclass only adds :meth:`_refine_group`.
        """
        tracer = get_tracer()
        with tracer.span("ann.ivf.plan", users=len(users)):
            vectors = scoring_ready_users(self.snapshot.users[users],
                                          self.snapshot.scoring)
            if self.routed:
                table = self._routing_for(k, filter_seen)
                groups, rows_by_group, seen = table.slice(users)
            else:
                plan = self.data.plan(vectors, self._seen_counts[users], k,
                                      self.nprobe, filter_seen,
                                      self.snapshot.scoring)
                groups = plan.signatures
                rows_by_group = plan.rows_by_group()
                seen = (self._dynamic_seen(users, plan) if filter_seen
                        else (np.empty(0, np.int64), np.empty(0, np.int64)))

        score_start = time.perf_counter() if tracer.enabled else None
        live = [(len(self.data.signature(groups[g])[0]), g)
                for g, rows in enumerate(rows_by_group) if len(rows)]
        live.sort()
        m = len(users)
        c_max = live[-1][0] if live else 0
        perm = (np.concatenate([rows_by_group[g] for _, g in live])
                if live else np.empty(0, np.int64))
        inverse = np.empty(m, dtype=np.int64)
        inverse[perm] = np.arange(m, dtype=np.int64)
        vectors = vectors[perm]
        block = np.empty((m, c_max), dtype=np.float64)
        ids_block = np.empty((m, c_max), dtype=np.int64)
        widths = np.empty(m, dtype=np.int64)
        start = 0
        for c_g, g in live:
            ids, panels = self.data.panels_for(groups[g], self._items_ready,
                                               self.panel_width,
                                               self.snapshot.version)
            stop = start + len(rows_by_group[g])
            scores = panel_scores(vectors[start:stop], panels, c_g)
            if self._item_sq is not None:
                # euclidean: same transform as ExactTopKIndex, applied
                # to the candidate columns
                u_sq = (vectors[start:stop] ** 2).sum(axis=1, keepdims=True)
                scores = -(u_sq + self._item_sq[ids] - 2.0 * scores)
            block[start:stop, :c_g] = self._refine_group(
                scores, vectors[start:stop], users[rows_by_group[g]],
                groups[g], k, filter_seen)
            block[start:stop, c_g:] = -np.inf
            ids_block[start:stop, :c_g] = ids
            ids_block[start:stop, c_g:] = self.data.num_items
            widths[start:stop] = c_g
            start = stop
        if filter_seen:
            seen_rows, seen_cols = seen
            block[inverse[seen_rows], seen_cols] = -np.inf
        out_items = np.empty((m, k), dtype=np.int64)
        out_scores = np.empty((m, k), dtype=np.float64)
        for lo, hi, width in _width_buckets(widths, c_max):
            top = rank_items(block[lo:hi, :width], k)
            out_items[lo:hi] = np.take_along_axis(ids_block[lo:hi, :width],
                                                  top, axis=1)
            out_scores[lo:hi] = np.take_along_axis(block[lo:hi, :width],
                                                   top, axis=1)
        if score_start is not None:
            tracer.record("ann.ivf.score", score_start,
                          time.perf_counter(), users=m)
        self._ctr_queries.inc(m)
        self._ctr_candidates.inc(int(widths.sum()))
        return out_items[inverse], out_scores[inverse]

    def _refine_group(self, scores: np.ndarray, vectors: np.ndarray,
                      users: np.ndarray, clusters: tuple[int, ...], k: int,
                      filter_seen: bool) -> np.ndarray:
        """Hook: narrow one signature group's candidates before ranking.

        ``scores`` is the exact ``(len(users), candidates)`` block of
        probe set ``clusters``, ``vectors`` the prepared rows of its
        ``users``.  Returns it with dropped candidates at ``-inf``.
        """
        return scores

    def _dynamic_seen(self, users: np.ndarray, plan: ProbePlan
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Locate each request user's seen items inside their candidates.

        Returns ``(rows, cols)`` such that ``block[rows, cols]`` are the
        seen-item entries to mask.  One flat ``searchsorted`` over the
        chunk: each group's candidate ids are offset into a disjoint
        range, so the concatenation stays sorted and a user's seen ids
        (offset by their group) resolve in a single vectorized pass.
        """
        m = len(users)
        span = self.data.num_items + 1
        group_ids = [self.data.signature(sig)[0] for sig in plan.signatures]
        flat = np.concatenate([ids + g * span
                               for g, ids in enumerate(group_ids)]) \
            if group_ids else np.empty(0, np.int64)
        starts = np.concatenate(
            [np.zeros(1, np.int64),
             np.cumsum([len(i) for i in group_ids])])[:-1]
        indptr = self.snapshot.seen_indptr
        counts = self._seen_counts[users]
        total = int(counts.sum())
        if not total or not len(flat):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        base = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gather = np.repeat(indptr[users] - base, counts) + np.arange(total)
        seen_vals = np.asarray(self.snapshot.seen_items)[gather]
        rows = np.repeat(np.arange(m), counts)
        group_of = plan.group_of_row[rows]
        keys = seen_vals + group_of * span
        pos = np.minimum(np.searchsorted(flat, keys), len(flat) - 1)
        hit = flat[pos] == keys
        return rows[hit], (pos - starts[group_of])[hit]

    def __repr__(self) -> str:
        return (f"IVFFlatIndex(nlist={self.data.nlist}, "
                f"nprobe={self.nprobe}, num_items={self.data.num_items}, "
                f"snapshot={self.snapshot.version!r})")


def _width_buckets(widths: np.ndarray, c_max: int):
    """Split group-sorted rows into at most two ranking buckets.

    ``widths`` is non-decreasing (rows arrive group-contiguous, groups
    sorted by candidate count).  Ranking cost is linear in block width,
    and a few heavily over-fetched users can double ``c_max`` — so rows
    whose width is well below ``c_max`` rank in their own narrower
    bucket.  Yields ``(lo, hi, width)`` row ranges.
    """
    m = len(widths)
    if not m or not c_max:
        return
    cut = int(np.searchsorted(widths, (3 * c_max) // 4, side="right"))
    if 0 < cut < m:
        yield 0, cut, int(widths[cut - 1])
        yield cut, m, c_max
    else:
        yield 0, m, c_max


class _RoutingTable:
    """Per-user probe routing for one ``(k, nprobe, filter_seen)``.

    Stores each user's signature group plus the ``(row offset within
    user, column)`` positions of their seen items inside the
    signature's candidate array, so steady-state serving skips probe
    selection and seen localization entirely.  Derived data — always
    rebuilt from the index, never persisted.
    """

    def __init__(self, signatures: list[tuple[int, ...]],
                 group_of_user: np.ndarray, seen_indptr: np.ndarray,
                 seen_cols: np.ndarray):
        self.signatures = signatures
        self.group_of_user = group_of_user
        self.seen_indptr = seen_indptr
        self.seen_cols = seen_cols

    @classmethod
    def build(cls, index: IVFFlatIndex, k: int,
              filter_seen: bool) -> "_RoutingTable":
        """Plan every user of the snapshot once with the dynamic path."""
        snapshot = index.snapshot
        all_users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        vectors = scoring_ready_users(np.asarray(snapshot.users),
                                      snapshot.scoring)
        plan = index.data.plan(vectors, index._seen_counts, k,
                               index.nprobe, filter_seen,
                               snapshot.scoring)
        if filter_seen:
            rows, cols = index._dynamic_seen(all_users, plan)
            order = np.argsort(rows, kind="stable")
            rows, cols = rows[order], cols[order]
            counts = np.bincount(rows, minlength=len(all_users))
            indptr = np.concatenate([np.zeros(1, np.int64),
                                     np.cumsum(counts)])
        else:
            indptr = np.zeros(len(all_users) + 1, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        return cls(plan.signatures, plan.group_of_row, indptr, cols)

    def slice(self, users: np.ndarray
              ) -> tuple[list, list[np.ndarray], tuple]:
        """Chunk view: signatures, rows per group, seen mask positions."""
        group_of_row = self.group_of_user[users]
        order = np.argsort(group_of_row, kind="stable")
        bounds = np.searchsorted(group_of_row[order],
                                 np.arange(len(self.signatures) + 1))
        rows_by_group = [order[bounds[g]:bounds[g + 1]]
                         for g in range(len(self.signatures))]
        counts = np.diff(self.seen_indptr)[users]
        total = int(counts.sum())
        if total:
            base = np.concatenate(([0], np.cumsum(counts)[:-1]))
            gather = (np.repeat(self.seen_indptr[users] - base, counts)
                      + np.arange(total))
            seen = (np.repeat(np.arange(len(users)), counts),
                    self.seen_cols[gather])
        else:
            seen = (np.empty(0, np.int64), np.empty(0, np.int64))
        return self.signatures, rows_by_group, seen
