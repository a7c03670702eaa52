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
  With ``nprobe == nlist`` every item is a candidate, every list's GEMM
  has the exact index's row count, and items and scores come out
  bit-identical.
* **Over-fetch.**  When ``filter_seen`` is on, each user's probe count
  is expanded past ``nprobe`` until the probed lists hold at least
  ``k + |seen(u)|`` items, so masking the user's training items can
  never starve the top-``k``.
* **List-major execution.**  A request chunk is scored one inverted
  list at a time: the chunk rows probing list ``c`` go through one GEMM
  against that list's zero-padded panel block (built on the list's
  first probe, kept for the index's lifetime), are masked and ranked
  down to a partial top-``k``, and each user's at most ``pmax``
  partials are merged at the end.  Lists and the merged candidates are
  ascending in global item id, so :func:`rank_items`' tie order is the
  global canonical ``(score desc, id asc)`` order at both levels.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.kmeans import kmeans, sq_dists
from repro.eval.metrics import rank_items
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.serve.index import (TopKResult, build_panels, euclidean_scores,
                               panel_scores, prepare_request,
                               scoring_ready_items, scoring_ready_users)
from repro.serve.shard import ShardedSnapshot
from repro.serve.snapshot import _csr_rows

__all__ = ["ANN_PANEL_WIDTH", "train_coarse_quantizer", "assign_lists",
           "IVFIndexData", "IVFFlatIndex"]

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
    if n_iter < 0:
        raise ValueError(f"need n_iter >= 0, got {n_iter}")
    return kmeans(items_ready, nlist, n_iter=n_iter,
                  rng=np.random.default_rng(seed))


def assign_lists(items_ready: np.ndarray, centroids: np.ndarray
                 ) -> list[np.ndarray]:
    """File every item under its nearest centroid: one list per item.

    Every returned list is ascending in global item id — the property
    that makes a list's column order the canonical id order.
    """
    owner = sq_dists(items_ready, centroids).argmin(axis=1)
    return [np.flatnonzero(owner == c) for c in range(len(centroids))]


# ----------------------------------------------------------------------
# Index data (centroids + inverted lists)
# ----------------------------------------------------------------------
class IVFIndexData:
    """Centroids plus inverted lists, with the probe-planning machinery.

    This is the persistent part of an IVF index (what
    :mod:`repro.ann.build` writes to disk).  It holds no user or item
    embeddings — :class:`IVFFlatIndex` brings its own.

    Parameters
    ----------
    centroids:
        ``(nlist, dim)`` float64 coarse-quantizer centroids in
        scoring-ready space.
    list_indptr, list_items:
        CSR layout of the inverted lists: list ``c`` holds global item
        ids ``list_items[list_indptr[c]:list_indptr[c + 1]]``, sorted
        ascending.  Every item is in exactly one list.
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
        counts = np.bincount(list_items, minlength=num_items)
        if np.any(counts != 1):
            raise ValueError(
                f"every item must be in exactly one inverted list: "
                f"{np.count_nonzero(counts == 0)} of {num_items} items are "
                f"in none, {np.count_nonzero(counts > 1)} in several")
        owner = np.repeat(np.arange(len(centroids)), np.diff(list_indptr))
        if np.any(np.diff(owner * num_items + list_items) <= 0):
            raise ValueError("item ids must ascend within each inverted list")
        self.centroids = centroids
        self.list_indptr = list_indptr
        self.list_items = list_items
        self.num_items = int(num_items)
        self.default_nprobe = int(default_nprobe)
        self.sizes = np.diff(list_indptr)
        #: item -> its row in ``list_items``
        self.position = np.empty(num_items, dtype=np.int64)
        self.position[list_items] = np.arange(len(list_items))

    @classmethod
    def from_lists(cls, centroids: np.ndarray, lists: list[np.ndarray],
                   num_items: int, default_nprobe: int = 2
                   ) -> "IVFIndexData":
        """Pack per-list id arrays (as :func:`assign_lists` returns)."""
        indptr = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum([len(l) for l in lists])])
        items = (np.concatenate(lists) if len(lists)
                 else np.empty(0, np.int64))
        return cls(centroids, indptr, items, num_items, default_nprobe)

    @property
    def nlist(self) -> int:
        """Number of inverted lists (coarse-quantizer clusters)."""
        return len(self.centroids)

    @property
    def table_bytes(self) -> int:
        """Bytes held by centroids and inverted lists (not panels)."""
        return (self.centroids.nbytes + self.list_indptr.nbytes
                + self.list_items.nbytes)

    def list_ids(self, c: int) -> np.ndarray:
        """Global item ids of inverted list ``c`` (ascending)."""
        return self.list_items[self.list_indptr[c]:self.list_indptr[c + 1]]

    # ------------------------------------------------------------------
    def plan(self, vectors: np.ndarray, seen_counts: np.ndarray, k: int,
             nprobe: int | None = None, filter_seen: bool = True,
             scoring: str = "inner") -> np.ndarray:
        """Select probed lists for a block of prepared user vectors.

        Lists are ranked per user by centroid score under the
        snapshot's ``scoring`` (inner/cosine: the dot product with the
        already-transformed ``vectors``; euclidean: negated squared
        distance), descending, ties broken by the smaller list index.
        The probe count starts at ``nprobe`` and expands per user until
        the probed lists hold at least ``k + seen_counts[u]`` items
        (``k`` when ``filter_seen`` is off) — the over-fetch guarantee.

        Returns the ``(len(vectors), pmax)`` array of probed list
        indices, ascending per row and padded with ``nlist``.
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
        p = np.maximum(nprobe, 1 + (cum < need[:, None]).sum(axis=1))
        p = np.minimum(p, self.nlist)
        pmax = int(p.max()) if m else nprobe
        probes = np.where(np.arange(pmax)[None, :] < p[:, None],
                          order[:, :pmax], self.nlist)
        probes.sort(axis=1)
        return probes


def _rows_by_list(probes: np.ndarray, nlist: int):
    """Yield ``(c, rows, slots)`` for every list a probe block touches.

    ``rows`` are the block rows probing list ``c`` (ascending) and
    ``slots`` the column of ``probes`` each holds it in: one stable
    argsort of the flattened block, the ``nlist`` padding dropped.
    """
    pmax = probes.shape[1]
    flat = probes.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(nlist + 1))
    for c in np.flatnonzero(np.diff(bounds)):
        hit = order[bounds[c]:bounds[c + 1]]
        yield int(c), hit // pmax, hit % pmax


# ----------------------------------------------------------------------
# IVF-Flat serving index
# ----------------------------------------------------------------------
class IVFFlatIndex:
    """Approximate top-K retrieval: IVF candidates, exact re-scoring.

    Speaks the :class:`~repro.serve.index.ExactTopKIndex` protocol
    (``topk`` / ``kind`` / ``snapshot`` / ``table_bytes``), so it plugs
    into :class:`~repro.serve.service.RecommendationService` as a
    drop-in index backend.

    Parameters
    ----------
    snapshot:
        Loaded 1×1 :class:`~repro.serve.shard.ShardedSnapshot` the
        index was built from (its whole-table reads provide user
        vectors, item rows for the re-scoring panels, and the seen-item
        CSR; a multi-shard set raises ``ValueError``).
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
    """

    kind = "ivf"

    def __init__(self, snapshot: ShardedSnapshot, data: IVFIndexData,
                 nprobe: int | None = None, chunk_users: int = 1024,
                 panel_width: int = ANN_PANEL_WIDTH):
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
        self._seen_counts = np.diff(snapshot.seen_indptr).astype(np.int64)
        #: per list: (panel block, euclidean ``‖i‖²`` or None), built on
        #: the list's first probe — never shared, so never stale
        self._panels: list[tuple | None] = [None] * data.nlist
        registry = get_registry()
        # Process-wide aggregates (no per-index labels): every IVF
        # instance feeds the same probe/candidate counters.
        self._ctr_queries = registry.counter(
            "ann.ivf.queries", "users answered through IVF retrieval")
        self._ctr_candidates = registry.counter(
            "ann.ivf.candidates",
            "candidate score slots assembled (sum of per-user probed-list "
            "sizes)")

    @property
    def table_bytes(self) -> int:
        """Bytes held by quantizer, lists and all ``nlist`` list panels.

        A function of the index alone: panels not built yet are counted
        at the size they will have, so serving never moves it.
        """
        width = self.panel_width
        panel_rows = int((-(-self.data.sizes // width) * width).sum())
        return (self.data.table_bytes
                + panel_rows * self.data.centroids.shape[1] * 8)

    # ------------------------------------------------------------------
    def topk(self, user_ids, k: int = 10,
             filter_seen: bool = True) -> TopKResult:
        """Rank each user's candidate set and keep the top ``k``.

        Same request semantics as
        :meth:`repro.serve.index.ExactTopKIndex.topk`; the returned scores
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
    def refreshed(self, snapshot: ShardedSnapshot) -> "IVFFlatIndex":
        """This index's geometry over a new snapshot generation.

        One :func:`assign_lists` pass files the new catalogue under the
        existing centroids — no k-means, and every list follows its rows
        wherever a re-export moved them.  New centroids are a
        :func:`~repro.ann.build.build_ann_index` away.
        The receiver is untouched: refresh is a swap, not a mutation.
        """
        items_ready = scoring_ready_items(np.asarray(snapshot.items),
                                          snapshot.scoring)
        centroids = self.data.centroids
        data = IVFIndexData.from_lists(
            centroids, assign_lists(items_ready, centroids),
            num_items=snapshot.manifest.num_items,
            default_nprobe=self.data.default_nprobe)
        return type(self)(snapshot, data, nprobe=self.nprobe,
                          chunk_users=self.chunk_users,
                          panel_width=self.panel_width)

    def _list_panels(self, c: int) -> tuple:
        """List ``c``'s scoring-ready rows as fixed-width panels.

        Packed through the shared
        :func:`~repro.serve.index.build_panels`, so every re-scoring
        GEMM has the same column count — the partition-invariance
        property the bit-parity contract rides on.  The scoring
        transform is row-local, so transforming the list's rows alone
        gives the bits of transforming the catalogue.
        """
        built = self._panels[c]
        if built is None:
            rows = scoring_ready_items(
                self.snapshot.items[self.data.list_ids(c)],
                self.snapshot.scoring)
            built = (build_panels(rows, self.panel_width),
                     (rows ** 2).sum(axis=1)
                     if self.snapshot.scoring == "euclidean" else None)
            self._panels[c] = built
        return built

    def _chunk_topk(self, users: np.ndarray, k: int, filter_seen: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one user chunk: plan → per-list partial top-k → merge."""
        tracer = get_tracer()
        data, scoring = self.data, self.snapshot.scoring
        with tracer.span("ann.ivf.plan", users=len(users)):
            vectors = scoring_ready_users(self.snapshot.users[users],
                                          scoring)
            probes = data.plan(vectors, self._seen_counts[users], k,
                               self.nprobe, filter_seen, scoring)

        score_start = time.perf_counter() if tracer.enabled else None
        m = len(users)
        # Row r keeps min(k, size) candidates of each list it probes,
        # side by side in probe order; unused slots hold the sentinel.
        sizes = np.append(data.sizes, 0)[probes]
        take = np.minimum(sizes, k)
        offsets = np.cumsum(take, axis=1) - take
        width = int((offsets[:, -1] + take[:, -1]).max())
        cand_ids = np.full((m, width), data.num_items, dtype=np.int64)
        cand_scores = np.full((m, width), -np.inf)
        if filter_seen:
            seen_bounds, seen_rows, seen_cols = self._seen_by_list(users,
                                                                   probes)
        for c, rows, slots in _rows_by_list(probes, data.nlist):
            size = int(data.sizes[c])
            if not size:
                continue
            panels, item_sq = self._list_panels(c)
            probing = vectors[rows]
            scores = panel_scores(probing, panels, size)
            if item_sq is not None:
                scores = euclidean_scores(scores, probing, item_sq)
            if filter_seen:
                hit = slice(seen_bounds[c], seen_bounds[c + 1])
                scores[seen_rows[hit], seen_cols[hit]] = -np.inf
            # list ids ascend, so the column tie-break is the id tie-break
            top = rank_items(scores, min(k, size))
            cols = offsets[rows, slots][:, None] + np.arange(top.shape[1])
            cand_ids[rows[:, None], cols] = data.list_ids(c)[top]
            cand_scores[rows[:, None], cols] = np.take_along_axis(
                scores, top, axis=1)
        # ascending ids make rank_items' tie-break the canonical order
        cand_ids, cand_scores = _along_rows(
            np.argsort(cand_ids, axis=1, kind="stable"),
            cand_ids, cand_scores)
        out = _along_rows(rank_items(cand_scores, k), cand_ids, cand_scores)
        if score_start is not None:
            tracer.record("ann.ivf.score", score_start,
                          time.perf_counter(), users=m)
        self._ctr_queries.inc(m)
        self._ctr_candidates.inc(int(sizes.sum()))
        return out

    def _seen_by_list(self, users: np.ndarray, probes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locate the chunk's seen items inside the lists it probes.

        Returns ``(bounds, rows, cols)``: the score block of list ``c``
        (one row per chunk user probing it, ascending) is masked at
        ``[rows[bounds[c]:bounds[c + 1]], cols[bounds[c]:bounds[c + 1]]]``.
        A lookup through ``data.position``: no search of the lists' id
        arrays.
        """
        data = self.data
        m = len(users)
        indptr, seen = _csr_rows(self.snapshot.seen_indptr,
                                 self.snapshot.seen_items, users)
        row = np.repeat(np.arange(m), np.diff(indptr))
        posting = data.position[seen]
        lists = np.searchsorted(data.list_indptr, posting, side="right") - 1
        cols = posting - data.list_indptr[lists]
        probed = np.zeros((m, data.nlist + 1), dtype=bool)
        probed[np.arange(m)[:, None], probes] = True
        keep = probed[row, lists]
        row, lists, cols = row[keep], lists[keep], cols[keep]
        # a chunk row's row in list c's block: how many rows up to and
        # including it probe c
        local = np.cumsum(probed, axis=0)[row, lists] - 1
        order = np.argsort(lists)
        bounds = np.searchsorted(lists[order], np.arange(data.nlist + 1))
        return bounds, local[order], cols[order]

    def __repr__(self) -> str:
        return (f"IVFFlatIndex(nlist={self.data.nlist}, "
                f"nprobe={self.nprobe}, num_items={self.data.num_items}, "
                f"snapshot={self.snapshot.version!r})")


def _along_rows(order: np.ndarray, ids: np.ndarray, scores: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` with each row's columns taken in ``order``."""
    return (np.take_along_axis(ids, order, axis=1),
            np.take_along_axis(scores, order, axis=1))
