"""Top-K retrieval over a frozen embedding snapshot.

:class:`ExactTopKIndex` answers ``topk(user_ids, k)`` by chunked dense
matmul over the float64 tables.  It reproduces the offline
:class:`~repro.eval.evaluator.Evaluator` protocol exactly: the same
scoring formulas as
:meth:`~repro.models.base.Recommender.predict_scores`, the same ``-inf``
seen-item scatter (:func:`repro.eval.masking.mask_seen_items`), and the
same canonical ranking (:func:`repro.eval.metrics.rank_items`), so
online recommendations are exactly the lists the paper's metrics were
computed on.

The index cuts a request into user chunks and hands each to a
:class:`PanelScorer`, which owns what the float64 format knows about
"some rows of an item table" and the one score → mask → rank loop
(:meth:`PanelScorer.topk`).  The loop scores a chunk
:data:`ROW_BLOCK` rows at a time into one ``(block, n_items)`` buffer,
so a chunk's score block is never held whole.
:class:`~repro.serve.shard.ItemShardIndex` runs the same scorer and
loop over one shard's rows, so neither scoring nor ``filter_seen``
semantics can drift between sharded and unsharded serving.

**Partition-invariant scoring.**  Dense BLAS matmuls are *not* bitwise
stable across matrix shapes: computing a score block as one large GEMM
versus per-shard sub-GEMMs can differ in the last ulp, which would make
sharded serving drift from the single-process answer.  Every score in
this module is therefore produced by a **fixed-shape panel kernel**
(:func:`build_panels` / :func:`panel_scores`): the item side is cut into
zero-padded panels of exactly :data:`PANEL_WIDTH` rows, so every GEMM
call has an identical ``(block rows, dim) @ (dim, PANEL_WIDTH)`` shape
regardless of catalogue size or shard boundaries.  A given (user, item)
pair then always runs through the same BLAS micro-kernel with the same
accumulation order, making scores a pure function of the two embedding
rows — the property the sharded router in :mod:`repro.serve.router`
needs for bit-identical scatter-gather (see ``docs/sharding.md``).
One caveat: the GEMM's *row* count is the number of users scored
together, and BLAS may pick another kernel for very few rows (measured
on OpenBLAS 0.3.31: the last ulp moves only for ``m <= 9`` at width 128
and ``m <= 2`` at width 512).  :func:`row_blocks` keeps every block of a
chunk at 64–127 rows, or the whole chunk when it has fewer than 128, so
no GEMM runs at those row counts unless the chunk itself is that small;
bit-parity is between paths that score a user in equally sized chunks —
which the sharded and unsharded paths do.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.eval.masking import mask_seen_items
from repro.eval.metrics import rank_items
from repro.serve.snapshot import EmbeddingSnapshot

__all__ = ["PANEL_WIDTH", "ROW_BLOCK", "TopKResult", "ExactTopKIndex",
           "scoring_ready_users", "scoring_ready_items", "build_panels",
           "panel_scores", "euclidean_scores", "row_blocks", "PanelScorer",
           "prepare_request"]

#: Fixed item-panel width of every scoring GEMM.  Both sides of the
#: sharded-vs-unsharded parity contract must use the same width.
PANEL_WIDTH = 512

#: User rows scored together by :meth:`PanelScorer.topk`: the height of
#: its one score buffer, and so of every scoring GEMM.
ROW_BLOCK = 64


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
    load-bearing for ranking parity — every index and every item shard
    must start from exactly this per-row transform.
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


def panel_scores(vectors: np.ndarray, panels, n_items: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Dense ``(len(vectors), n_items)`` score block from padded panels.

    ``panels`` is a packed ``(n_panels, width, dim)`` block from
    :func:`build_panels`.  Every matmul
    is ``(m, dim) @ (dim, width)`` with ``width`` fixed by the panel
    layout, so a given (user, item) pair produces bitwise the same
    score no matter which panel — or which shard's panel — the item
    row sits in.  This is the only scoring loop in the serving stack;
    a second copy could drift and break the sharded bit-parity.

    ``out`` is an optional ``(len(vectors), n_items)`` float64 block to
    fill and return.  Each full panel's GEMM writes straight into its
    columns of the block; only the zero-padded last panel goes through
    a temporary.
    """
    if out is None:
        out = np.empty((len(vectors), n_items), dtype=np.float64)
    lo = 0
    for panel in panels:
        hi = min(lo + len(panel), n_items)
        if hi - lo == len(panel):
            np.matmul(vectors, panel.T, out=out[:, lo:hi])
        else:
            out[:, lo:hi] = (vectors @ panel.T)[:, :hi - lo]
        lo = hi
    return out


def euclidean_scores(dots: np.ndarray, vectors: np.ndarray,
                     item_sq: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Negated squared distances from a dot-product score block.

    ``-(‖u‖² + ‖i‖² - 2 u·i)`` with ``‖u‖²`` taken from ``vectors`` in
    float64 and ``item_sq`` the scored columns' ``‖i‖²``: the one
    euclidean expansion the scorer and the IVF list loop share.
    ``out`` (which may be ``dots`` itself) receives the result; the
    doubling is exact, so doing it in place keeps every bit.
    """
    u_sq = (vectors.astype(np.float64) ** 2).sum(axis=1, keepdims=True)
    twice = np.multiply(dots, 2.0, out=out)
    np.subtract(u_sq + item_sq, twice, out=twice)
    return np.negative(twice, out=twice)


def row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of the row blocks :meth:`PanelScorer.topk`
    scores a chunk of ``n_rows`` users in.

    Blocks are :data:`ROW_BLOCK` rows and the remainder joins the last
    one, so every block has 64–127 rows, or is the whole chunk when the
    chunk has fewer than 128: a short final block never drops the GEMM
    row count into the range where BLAS switches kernels.
    """
    starts = list(range(0, n_rows - ROW_BLOCK + 1, ROW_BLOCK)) or [0]
    return [(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])
            if hi > lo]


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
    """Item rows packed as fixed-width float64 panels.

    ``rows`` are raw ``(n, dim)`` embedding rows — the whole catalogue
    (:class:`ExactTopKIndex`) or one shard's slice of it
    (:class:`~repro.serve.shard.ItemShardIndex`) — scored under
    ``scoring`` (``inner`` / ``cosine`` / ``euclidean``) in GEMMs of
    ``panel_width`` item rows.  The scoring-ready float64 table is a
    construction temporary: only the panels (and, for euclidean, the
    squared row norms) are kept.
    """

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

    def scores(self, vectors: np.ndarray, kernel,
               out: np.ndarray | None = None) -> np.ndarray:
        """Dense ``(len(vectors), n_items)`` float64 score block for
        :func:`scoring_ready_users` vectors, written into ``out`` when
        given.

        ``kernel`` is the **caller's** :func:`panel_scores`, passed in
        rather than called from here: ``bench/workloads.py`` attributes
        scoring time per layer by patching that name in the calling
        module, so it must resolve there at call time.  :meth:`topk`
        calls this once per row block, never on a whole chunk.
        """
        scores = kernel(vectors, self._panels, self.n_items, out=out)
        if self._item_sq is not None:
            return euclidean_scores(scores, vectors, self._item_sq,
                                    out=scores)
        return scores

    def topk(self, vectors: np.ndarray, k: int, seen, *, score, mask,
             rank) -> tuple[np.ndarray, np.ndarray]:
        """Score → mask → rank one chunk of users, a row block at a time.

        The one loop behind :meth:`ExactTopKIndex.topk` and
        :meth:`~repro.serve.shard.ItemShardIndex.partial_topk`.  It
        allocates a single ``(block, n_items)`` buffer; each
        :func:`row_blocks` block of ``vectors`` is scored into it, has
        its seen items masked and is ranked, so peak memory is one block
        of at most ``2 * ROW_BLOCK - 1`` rows, not the whole chunk.

        ``seen`` is ``None`` or ``(indptr, indices, positions)``: row
        ``r`` of ``vectors`` masks ``indices[indptr[p]:indptr[p + 1]]``
        with ``p = positions[r]``.  ``score`` / ``mask`` / ``rank`` are
        the caller's :func:`panel_scores`,
        :func:`~repro.eval.masking.mask_seen_items` and
        :func:`~repro.eval.metrics.rank_items`, for the same reason
        :meth:`scores` takes its kernel.

        Returns ``(columns, scores)``, both ``(len(vectors), k)``: the
        top-``k`` column indices of this scorer's rows in canonical
        order, and their scores.
        """
        top = np.empty((len(vectors), k), dtype=np.int64)
        top_scores = np.empty((len(vectors), k), dtype=np.float64)
        blocks = row_blocks(len(vectors))
        buffer = np.empty((max((hi - lo for lo, hi in blocks), default=0),
                           self.n_items), dtype=np.float64)
        for lo, hi in blocks:
            scores = self.scores(vectors[lo:hi], score, out=buffer[:hi - lo])
            if seen is not None:
                indptr, indices, positions = seen
                mask(scores, indptr, indices, positions[lo:hi])
            top[lo:hi] = rank(scores, k)
            top_scores[lo:hi] = np.take_along_axis(scores, top[lo:hi],
                                                   axis=-1)
        return top, top_scores


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


class ExactTopKIndex:
    """Chunk → score → mask → rank over one snapshot, through a
    :class:`PanelScorer`: evaluator-identical exact retrieval.

    Parameters
    ----------
    snapshot:
        Loaded :class:`~repro.serve.snapshot.EmbeddingSnapshot`.
    chunk_users:
        Users handed to the scorer at a time, the unit the sharded
        router also fans out per chunk.  The score buffer is bounded by
        :data:`ROW_BLOCK`, not by this: :meth:`PanelScorer.topk` scores
        a chunk in blocks of 64–127 rows (the whole chunk below 128).
    panel_width:
        Item rows per scoring GEMM (default :data:`PANEL_WIDTH`).  Both
        sides of a sharded parity comparison must use the same width.
    """

    #: tag recorded in benchmarks and service cache keys
    kind = "exact"

    def __init__(self, snapshot: EmbeddingSnapshot, chunk_users: int = 256,
                 panel_width: int = PANEL_WIDTH):
        if chunk_users <= 0:
            raise ValueError(f"chunk_users must be positive, got {chunk_users}")
        self.snapshot = snapshot
        self.chunk_users = chunk_users
        self.scorer = PanelScorer(snapshot.items, snapshot.scoring,
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
            seen = ((snapshot.seen_indptr, snapshot.seen_items, chunk)
                    if filter_seen else None)
            (out_items[lo:lo + len(chunk)],
             out_scores[lo:lo + len(chunk)]) = self.scorer.topk(
                vectors, k, seen, score=panel_scores,
                mask=mask_seen_items, rank=rank_items)
        return TopKResult(user_ids=users, items=out_items, scores=out_scores,
                          k=k, filtered_seen=filter_seen)

    # ------------------------------------------------------------------
    def refreshed(self, snapshot: EmbeddingSnapshot) -> "ExactTopKIndex":
        """Rebuild this index over ``snapshot``, keeping tuning knobs.

        The exact index derives everything from the item table, so a
        refresh is a plain reconstruction.  The returned index serves
        ``snapshot`` — the receiver is untouched,
        so an in-flight request on the old index is never torn.
        """
        return type(self)(snapshot, chunk_users=self.chunk_users,
                          panel_width=self.scorer.panel_width)

