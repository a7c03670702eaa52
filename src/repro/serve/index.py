"""Top-K retrieval indexes over a frozen embedding snapshot.

Two interchangeable paths answer ``topk(user_ids, k)``:

* :class:`ExactTopKIndex` — chunked dense matmul over the float64
  tables.  It reproduces the offline
  :class:`~repro.eval.evaluator.Evaluator` protocol exactly: the same
  scoring formulas as
  :meth:`~repro.models.base.Recommender.predict_scores`, the same
  ``-inf`` seen-item scatter
  (:func:`repro.eval.masking.mask_seen_items`), and the same canonical
  ranking (:func:`repro.eval.metrics.rank_items`), so online
  recommendations are exactly the lists the paper's metrics were
  computed on.
* :class:`QuantizedTopKIndex` — the item table stored symmetric-int8
  per row (8x smaller than float64) and dequantized panel-by-panel into
  a float32 matmul.  Approximate (last-ulp rank flips are possible) but
  at paper scales it keeps >0.95 top-10 overlap with the exact path;
  the serve benchmark (``repro bench serve``) reports the measured
  overlap alongside throughput.

Both are the one :class:`TopKIndex` — chunk, score, mask, rank — over a
different **scorer** (:class:`PanelScorer` / :class:`Int8Scorer`), which
owns what one number format knows about "some rows of an item table".
:class:`~repro.serve.shard.ItemShardIndex` holds the same scorers over
one shard's rows, so neither scoring nor ``filter_seen`` semantics can
drift between kinds or between sharded and unsharded serving.

**Partition-invariant scoring.**  Dense BLAS matmuls are *not* bitwise
stable across matrix shapes: computing a score block as one large GEMM
versus per-shard sub-GEMMs can differ in the last ulp, which would make
sharded serving drift from the single-process answer.  Every score in
this module is therefore produced by a **fixed-shape panel kernel**
(:func:`build_panels` / :func:`panel_scores`): the item side is cut into
zero-padded panels of exactly :data:`PANEL_WIDTH` rows, so every GEMM
call has an identical ``(chunk_users, dim) @ (dim, PANEL_WIDTH)`` shape
regardless of catalogue size or shard boundaries.  A given (user, item)
pair then always runs through the same BLAS micro-kernel with the same
accumulation order, making scores a pure function of the two embedding
rows — the property the sharded router in :mod:`repro.serve.router`
needs for bit-identical scatter-gather (see ``docs/sharding.md``).
One caveat: the GEMM's *row* count is the number of users scored
together, and BLAS may pick another kernel for very few rows (measured
on OpenBLAS 0.3.31: the last ulp moves only for ``m <= 9`` at width 128
and ``m <= 2`` at width 512), so bit-parity is between paths that
score a user in equally sized chunks — which the sharded and unsharded
paths do.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.eval.masking import mask_seen_items
from repro.eval.metrics import rank_items
from repro.serve.snapshot import EmbeddingSnapshot

__all__ = ["PANEL_WIDTH", "TopKResult", "TopKIndex", "ExactTopKIndex",
           "QuantizedTopKIndex", "build_index", "scoring_ready_users",
           "scoring_ready_items", "build_panels", "panel_scores",
           "quantize_rows", "PanelScorer", "Int8Scorer", "SCORERS",
           "prepare_request"]

#: Fixed item-panel width of every scoring GEMM.  Both sides of the
#: sharded-vs-unsharded parity contract must use the same width.
PANEL_WIDTH = 512


# ----------------------------------------------------------------------
# Shared scoring kernels (also used by repro.serve.shard)
# ----------------------------------------------------------------------
def scoring_ready_users(vectors: np.ndarray, scoring: str) -> np.ndarray:
    """Query-side prep: float64 cast plus cosine row-normalization.

    Mirrors ``predict_scores``: rows are selected *before* the
    normalization so the arithmetic matches element for element.  All
    operations are row-local, so gathering rows from user shards first
    cannot change the result.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if scoring == "cosine":
        vectors = vectors / (np.linalg.norm(vectors, axis=1,
                                            keepdims=True) + 1e-12)
    return vectors


def scoring_ready_items(items: np.ndarray, scoring: str) -> np.ndarray:
    """Catalogue-side prep with the scoring transform baked in.

    The float64 cast and the cosine ``+ 1e-12`` row-normalization are
    load-bearing for ranking parity — every index kind and every item
    shard must start from exactly this per-row transform.
    """
    items = np.asarray(items, dtype=np.float64)
    if scoring == "cosine":
        items = items / (np.linalg.norm(items, axis=1, keepdims=True)
                         + 1e-12)
    return items


def build_panels(items: np.ndarray, width: int = PANEL_WIDTH) -> np.ndarray:
    """Pack item rows into zero-padded ``(n_panels, width, dim)`` panels.

    The fixed panel width is what pins the GEMM shape (and therefore the
    BLAS kernel and its accumulation order) independently of how many
    items a table or shard holds.
    """
    if width <= 0:
        raise ValueError(f"panel width must be positive, got {width}")
    n, dim = items.shape
    n_panels = max(1, -(-n // width))
    panels = np.zeros((n_panels, width, dim), dtype=items.dtype)
    for p in range(n_panels):
        lo = p * width
        hi = min(lo + width, n)
        panels[p, :hi - lo] = items[lo:hi]
    return panels


def panel_scores(vectors: np.ndarray, panels, n_items: int) -> np.ndarray:
    """Dense ``(len(vectors), n_items)`` score block from padded panels.

    ``panels`` is any iterable of equal-width ``(width, dim)`` panels:
    the packed float64 block of :func:`build_panels`, or the float32
    panels :class:`Int8Scorer` dequantizes one at a time.  Every matmul
    is ``(m, dim) @ (dim, width)`` with ``width`` fixed by the panel
    layout, so a given (user, item) pair produces bitwise the same
    score no matter which panel — or which shard's panel — the item
    row sits in.  This is the only scoring loop in the serving stack;
    a second copy could drift and break the sharded bit-parity.
    """
    out = np.empty((len(vectors), n_items), dtype=np.float64)
    lo = 0
    for panel in panels:
        hi = min(lo + len(panel), n_items)
        out[:, lo:hi] = (vectors @ panel.T)[:, :hi - lo]
        lo = hi
    return out


def quantize_rows(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row int8 quantization of a scoring-ready table.

    Returns ``(q, scales)`` with ``q[i] ≈ items[i] / scales[i]`` and
    ``scales[i] = max|items[i]| / 127``.  Row-local by construction, so
    a shard's rows quantize to exactly the same bytes as the same rows
    in the full catalogue.
    """
    peak = np.abs(items).max(axis=1)
    scales = np.where(peak > 0, peak / 127.0, 1.0)
    q = np.clip(np.rint(items / scales[:, None]), -127, 127).astype(np.int8)
    return q, scales.astype(np.float32)


@dataclasses.dataclass(frozen=True)
class TopKResult:
    """Ranked recommendations for one batch of users.

    ``items[r]`` are the top-K item ids for ``user_ids[r]``, best first;
    ``scores[r]`` are the corresponding model scores (the exact index
    returns the same float64 values the evaluator ranks on).

    ``coverage`` / ``failed_shards`` carry the degraded-result contract
    of the resilient router (``docs/robustness.md``): ``coverage`` is
    the fraction of the item catalogue actually scored (1.0 everywhere
    except a degraded scatter-gather answer), and ``failed_shards``
    names the item shards that missed their deadline budget.  Ranks a
    degraded merge could not fill are padded with item ``-1`` and score
    ``-inf`` — never silently filled from partial data.
    """

    user_ids: np.ndarray
    items: np.ndarray
    scores: np.ndarray
    k: int
    filtered_seen: bool
    coverage: float = 1.0
    failed_shards: tuple = ()

    def __len__(self) -> int:
        return len(self.user_ids)


class PanelScorer:
    """Exact scorer: item rows packed as fixed-width float64 panels.

    ``rows`` are raw ``(n, dim)`` embedding rows — the whole catalogue
    (:class:`TopKIndex`) or one shard's slice of it
    (:class:`~repro.serve.shard.ItemShardIndex`) — scored under
    ``scoring`` (``inner`` / ``cosine`` / ``euclidean``) in GEMMs of
    ``panel_width`` item rows.  The scoring-ready float64 table is a
    construction temporary: only the panels (and, for euclidean, the
    squared row norms) are kept.
    """

    kind = "exact"

    def __init__(self, rows: np.ndarray, scoring: str,
                 panel_width: int = PANEL_WIDTH):
        items = scoring_ready_items(rows, scoring)
        self.panel_width = panel_width
        self.n_items = len(items)
        self._panels = build_panels(items, panel_width)
        self._item_sq = ((items ** 2).sum(axis=1)
                         if scoring == "euclidean" else None)

    @property
    def table_bytes(self) -> int:
        """Bytes held by the panelized float64 table."""
        return self._panels.nbytes

    def scores(self, vectors: np.ndarray, kernel) -> np.ndarray:
        """Dense ``(len(vectors), n_items)`` float64 score block for
        :func:`scoring_ready_users` vectors.

        ``kernel`` is the **caller's** :func:`panel_scores`, passed in
        rather than called from here: ``bench/workloads.py`` attributes
        scoring time per layer by patching that name in the calling
        module, so it must resolve there at call time.
        """
        scores = kernel(vectors, self._panels, self.n_items)
        if self._item_sq is not None:
            u_sq = (vectors ** 2).sum(axis=1, keepdims=True)
            return -(u_sq + self._item_sq - 2.0 * scores)
        return scores


class Int8Scorer:
    """Approximate scorer: item rows stored symmetric-int8 per row
    (:func:`quantize_rows`), an 8x compression of the catalogue side.

    Same parameters as :class:`PanelScorer`.  Scoring dequantizes
    ``panel_width`` rows at a time into a zero-padded float32 panel, so
    peak extra memory stays at one small panel regardless of table size
    and every GEMM keeps the fixed partition-invariant shape.
    Quantization is per row, so a shard's bytes, scales and scores are
    identical to the same rows inside the unsharded table.
    """

    kind = "quantized"

    def __init__(self, rows: np.ndarray, scoring: str,
                 panel_width: int = PANEL_WIDTH):
        if panel_width <= 0:
            raise ValueError(f"panel width must be positive, "
                             f"got {panel_width}")
        self.panel_width = panel_width
        self._quantized, self._scales = quantize_rows(
            scoring_ready_items(rows, scoring))
        self.n_items = len(self._quantized)
        self._item_sq = None
        if scoring == "euclidean":
            deq = self._quantized.astype(np.float32) * self._scales[:, None]
            self._item_sq = (deq.astype(np.float64) ** 2).sum(axis=1)

    @property
    def table_bytes(self) -> int:
        """Bytes held by the quantized table (int8 rows + scales)."""
        return self._quantized.nbytes + self._scales.nbytes

    def _panels(self):
        """Float32 panels, dequantized one at a time, tail zero-padded."""
        width = self.panel_width
        for lo in range(0, self.n_items, width):
            panel = (self._quantized[lo:lo + width].astype(np.float32)
                     * self._scales[lo:lo + width, None])
            if len(panel) < width:
                panel = np.pad(panel, ((0, width - len(panel)), (0, 0)))
            yield panel

    def scores(self, vectors: np.ndarray, kernel) -> np.ndarray:
        """Float32-GEMM counterpart of :meth:`PanelScorer.scores`."""
        vectors = vectors.astype(np.float32)
        scores = kernel(vectors, self._panels(), self.n_items)
        if self._item_sq is not None:
            u_sq = (vectors.astype(np.float64) ** 2).sum(axis=1,
                                                         keepdims=True)
            scores = -(u_sq + self._item_sq - 2.0 * scores)
        return scores


#: Scorer class per kind name — one table for :class:`TopKIndex` and the
#: sharded router, so both topologies offer the same number formats.
SCORERS = {"exact": PanelScorer, "quantized": Int8Scorer}


def prepare_request(user_ids, k: int, manifest
                    ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The ``topk`` prologue every index shares.

    Returns ``(users, k, out_items, out_scores)``: the ids as a checked
    1-D int64 array, ``k`` clipped to the catalogue size, and the two
    ``(len(users), k)`` result buffers the chunk loop fills.
    """
    users = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
    if users.ndim != 1:
        raise ValueError(f"user_ids must be 1-D, got shape {users.shape}")
    if len(users) and (users.min() < 0
                       or users.max() >= manifest.num_users):
        raise ValueError(f"user ids must lie in [0, {manifest.num_users})")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, manifest.num_items)
    return (users, k, np.empty((len(users), k), dtype=np.int64),
            np.empty((len(users), k), dtype=np.float64))


class TopKIndex:
    """Chunk → score → mask → rank over one snapshot, through one scorer.

    The concrete index behind both kinds: :attr:`kind` names the scorer
    class, and nothing else differs between them.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.snapshot.EmbeddingSnapshot`.
    chunk_users:
        Users scored per dense block; bounds the ``(chunk, n_items)``
        score buffer exactly like the evaluator's ``batch_users``.
    panel_width:
        Item rows per scoring GEMM (default :data:`PANEL_WIDTH`).  Both
        sides of a sharded parity comparison must use the same width.
    """

    #: names the scorer in :data:`SCORERS`; also the tag recorded in
    #: benchmarks and service cache keys
    kind = "exact"

    def __init__(self, snapshot: EmbeddingSnapshot, chunk_users: int = 256,
                 panel_width: int = PANEL_WIDTH):
        if chunk_users <= 0:
            raise ValueError(f"chunk_users must be positive, got {chunk_users}")
        self.snapshot = snapshot
        self.chunk_users = chunk_users
        self.scorer = SCORERS[self.kind](snapshot.items, snapshot.scoring,
                                         panel_width)

    @property
    def table_bytes(self) -> int:
        """Bytes held by the scorer's catalogue table."""
        return self.scorer.table_bytes

    # ------------------------------------------------------------------
    def topk(self, user_ids, k: int = 10,
             filter_seen: bool = True) -> TopKResult:
        """Rank the catalogue for a batch of users and keep the top ``k``.

        Parameters
        ----------
        user_ids:
            Integer array-like of user ids (any order, duplicates fine).
        k:
            List length; clipped to the catalogue size.
        filter_seen:
            Remove each user's training interactions from the candidate
            set (the evaluator's protocol).  Pass ``False`` to rank the
            full catalogue (e.g. for similar-item carousels).
        """
        snapshot = self.snapshot
        users, k, out_items, out_scores = prepare_request(
            user_ids, k, snapshot.manifest)
        for lo in range(0, len(users), self.chunk_users):
            chunk = users[lo:lo + self.chunk_users]
            vectors = scoring_ready_users(snapshot.users[chunk],
                                          snapshot.scoring)
            scores = self.scorer.scores(vectors, panel_scores)
            if filter_seen:
                mask_seen_items(scores, snapshot.seen_indptr,
                                snapshot.seen_items, chunk)
            top = rank_items(scores, k)
            out_items[lo:lo + len(chunk)] = top
            out_scores[lo:lo + len(chunk)] = np.take_along_axis(
                scores, top, axis=-1)
        return TopKResult(user_ids=users, items=out_items, scores=out_scores,
                          k=k, filtered_seen=filter_seen)

    # ------------------------------------------------------------------
    def refreshed(self, snapshot: EmbeddingSnapshot) -> "TopKIndex":
        """Rebuild this index over ``snapshot``, keeping tuning knobs.

        The exact and quantized indexes derive everything from the item
        table, so a refresh is a plain reconstruction; the ANN indexes
        override this with incremental posting-list maintenance.  The
        returned index serves ``snapshot`` — the receiver is untouched,
        so an in-flight request on the old index is never torn.
        """
        return type(self)(snapshot, chunk_users=self.chunk_users,
                          panel_width=self.scorer.panel_width)


class ExactTopKIndex(TopKIndex):
    """Exact retrieval: fixed-panel float64 matmul, evaluator-identical."""


class QuantizedTopKIndex(TopKIndex):
    """Approximate retrieval over a symmetric-int8 item table
    (:class:`Int8Scorer`); ``chunk_items`` is the former name of
    ``panel_width`` on this class, still accepted."""

    kind = "quantized"

    def __init__(self, snapshot: EmbeddingSnapshot, chunk_users: int = 256,
                 panel_width: int = PANEL_WIDTH,
                 chunk_items: int | None = None):
        super().__init__(snapshot, chunk_users,
                         panel_width if chunk_items is None else chunk_items)


_INDEX_KINDS = {"exact": ExactTopKIndex, "quantized": QuantizedTopKIndex}


def build_index(snapshot: EmbeddingSnapshot, kind: str = "exact",
                **kwargs) -> TopKIndex:
    """Construct an index by kind name (``"exact"`` or ``"quantized"``)."""
    if kind not in _INDEX_KINDS:
        raise KeyError(f"unknown index kind {kind!r}; "
                       f"available: {sorted(_INDEX_KINDS)}")
    return _INDEX_KINDS[kind](snapshot, **kwargs)
