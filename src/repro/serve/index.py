"""Top-K retrieval over a frozen embedding snapshot.

:class:`ExactTopKIndex` answers ``topk(user_ids, k)`` by chunked dense
matmul over a 1×1 snapshot's whole float64 tables.  It reproduces the
offline :class:`~repro.eval.evaluator.Evaluator` protocol exactly: the same
scoring transforms (:mod:`repro.scoring`), the same ``-inf`` seen-item
scatter (:func:`repro.eval.masking.mask_seen_items`), and the same
canonical ranking (:func:`repro.eval.metrics.rank_items`), so
online recommendations are exactly the lists the paper's metrics were
computed on.

The index cuts a request into user chunks and hands each to a
:class:`PanelScorer`, which owns what serving knows about "some rows of
an item table" and the one score → mask → rank loop
(:meth:`PanelScorer.topk`).  The loop scores a chunk :data:`ROW_BLOCK`
rows at a time into one ``(block, n_items)`` float32 buffer, so a
chunk's score block is never held whole, and picks candidates from
that float32 first pass: one GEMM per row block against the scorer's
float32 ``(dim, n_items)`` transposed table.  The candidates, certified
by :func:`score_margin` to hold every item the exact ranking can
return, are then re-scored in float64, so every returned item and
score is the float64 answer.  :class:`~repro.serve.shard.ItemShardIndex`
runs the same scorer and loop over one shard's rows, so neither scoring
nor ``filter_seen`` semantics can drift between sharded and unsharded
serving; :class:`~repro.serve.service.RecommendationService` serves
every snapshot, 1×1 included, through the router over those shards.

**Partition-invariant scoring.**  Dense BLAS matmuls are *not* bitwise
stable across matrix shapes: computing a score block as one large GEMM
versus per-shard sub-GEMMs can differ in the last ulp, which would make
sharded serving drift from the single-process answer.  Every score this
module returns is therefore produced by a **fixed-shape panel kernel**
(:func:`build_panels` / :func:`panel_scores`): the item side is cut into
zero-padded panels of exactly :data:`PANEL_WIDTH` rows, so every GEMM
call has an identical ``(block rows, dim) @ (dim, PANEL_WIDTH)`` shape
regardless of catalogue size or shard boundaries.  A given (user, item)
pair then always runs through the same BLAS micro-kernel with the same
accumulation order, making scores a pure function of the two embedding
rows — the property the sharded router in :mod:`repro.serve.router`
needs for bit-identical scatter-gather (see ``docs/sharding.md``).  The
float32 first pass's bits belong to no contract, so it skips the panels
and scores all of a table's rows in one
``(block rows, dim) @ (dim, n_items)`` GEMM.
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
from repro.eval.metrics import columns_at_least, kth_group_max, rank_items
from repro.obs.metrics import get_registry
from repro.scoring import (euclidean_scores, scoring_ready_items,
                           scoring_ready_users)

__all__ = ["PANEL_WIDTH", "ROW_BLOCK", "TopKResult",
           "ExactTopKIndex", "scoring_ready_users", "scoring_ready_items",
           "build_panels", "panel_scores", "euclidean_scores",
           "score_margin", "row_blocks", "PanelScorer", "prepare_request"]

#: Fixed item-panel width of every scoring GEMM.  Both sides of the
#: sharded-vs-unsharded parity contract must use the same width.
PANEL_WIDTH = 512

#: User rows scored together by :meth:`PanelScorer.topk`: the height of
#: its one score buffer, and so of every scoring GEMM.
ROW_BLOCK = 64

#: Item rows :class:`PanelScorer` readies and casts at a time while it
#: builds its first-pass table, so no temporary spans the table.
TABLE_ROWS = 512

#: Item rows it transposes per copy into that table: a float32 tile of
#: 128 rows of dim 64 (32 KB) stays in L1 while its columns are written.
TRANSPOSE_ROWS = 128

#: Largest ``‖u‖``, ``M`` and ``‖u‖·M`` (euclidean: ``(‖u‖ + M)²``) the
#: float32 first pass is trusted with; float32 overflows at ~3.4e38.
FLOAT32_SAFE = 1e30


# ----------------------------------------------------------------------
# Shared scoring kernels (also used by repro.serve.shard)
# ----------------------------------------------------------------------
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
    :class:`PanelScorer`'s first pass, whose bits no contract pins,
    passes one panel that spans every row instead (``table.T[None]``),
    so each of its row blocks costs one GEMM.

    ``out`` is an optional ``(len(vectors), n_items)`` block to fill and
    return, in the dtype of ``vectors`` and ``panels``.  Each full
    panel's GEMM writes straight into its columns of the block; only
    the zero-padded last panel goes through a temporary.
    """
    if out is None:
        out = np.empty((len(vectors), n_items),
                       dtype=np.result_type(vectors, panels))
    lo = 0
    for panel in panels:
        hi = min(lo + len(panel), n_items)
        if hi - lo == len(panel):
            np.matmul(vectors, panel.T, out=out[:, lo:hi])
        else:
            out[:, lo:hi] = (vectors @ panel.T)[:, :hi - lo]
        lo = hi
    return out


def score_margin(user_norms: np.ndarray, item_norm: float, dim: int,
                 scoring: str) -> np.ndarray:
    """Per-row bound ``δ`` on ``|s32 - s64|`` over every item of a scorer.

    ``s32`` is a first-pass score of :meth:`PanelScorer.topk` (float32
    casts of the scoring-ready rows, a float32 GEMM and euclidean
    expansion), ``s64`` the float64 score of the same pair.  Each lies
    within ``γ(d + 4)·S`` of the exact value of the expression on the
    float64 rows (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3: ``d`` roundings in a dot product, two casts, two
    in the euclidean expansion), with ``γ(n) = n·u / (1 - n·u)`` in each
    format's unit roundoff ``u``, and ``S`` bounding the summed
    magnitudes: ``Σ|u_j i_j| <= ‖u‖·M`` for inner and cosine,
    ``‖u‖² + ‖i‖² + 2‖u‖·‖i‖ <= (‖u‖ + M)²`` for euclidean, where
    ``‖u‖`` is ``user_norms`` and ``M = item_norm`` the scorer's largest
    row norm.  Underflow, flush-to-zero included, adds less than
    ``8(d + 4)·λ·(1 + ‖u‖ + M)``, ``λ`` the smallest normal float32.
    The sum is doubled, which covers the rounding of the norms and of
    this formula.

    A row is ``inf`` (never certified) when its float32 pass could
    overflow — ``‖u‖``, ``M`` or ``S`` above :data:`FLOAT32_SAFE` — or
    a norm is not finite.
    """
    n = dim + 4
    gamma = sum(n * u / (1 - n * u) if n * u < 1 else np.inf
                for u in (2.0 ** -24, 2.0 ** -53))
    user_norms = np.asarray(user_norms, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = ((user_norms + item_norm) ** 2 if scoring == "euclidean"
                 else user_norms * item_norm)
        delta = 2 * (gamma * scale + 8 * n * float(np.finfo(np.float32).tiny)
                     * (1 + user_norms + item_norm))
    safe = ((scale <= FLOAT32_SAFE) & (user_norms <= FLOAT32_SAFE)
            & (item_norm <= FLOAT32_SAFE))
    return np.where(safe, delta, np.inf)


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
    """Item rows scored in two passes: a float32 pass over a transposed
    table, then an exact float64 re-score of certified candidates.

    ``rows`` are raw ``(n, dim)`` float64 embedding rows — the whole
    catalogue (:class:`ExactTopKIndex`) or one shard's slice of it
    (:class:`~repro.serve.shard.ItemShardIndex`) — scored under
    ``scoring`` (``inner`` / ``cosine`` / ``euclidean``).  The scorer
    keeps the scoring-ready rows as one C-contiguous ``(dim, n)``
    float32 table, which the first pass scores a row block against in
    one GEMM; a reference to ``rows`` (a snapshot's memory map) for the
    re-score, whose GEMMs take ``panel_width`` item rows each; the
    largest scoring-ready row norm for :func:`score_margin`; and, for
    euclidean, the exact float64 squared row norms.  The table is built
    :data:`TABLE_ROWS` rows at a time: the scoring transform is
    row-local, so no scoring-ready copy of the whole of ``rows`` is made.
    """

    def __init__(self, rows: np.ndarray, scoring: str,
                 panel_width: int = PANEL_WIDTH):
        self.rows = rows
        self.scoring = scoring
        self.panel_width = panel_width
        self.n_items, self.dim = rows.shape
        self._table = np.empty((self.dim, self.n_items), dtype=np.float32)
        sq = np.empty(self.n_items)
        plain = np.asarray(rows)  # no np.memmap wrapping per block op
        for lo in range(0, self.n_items, TABLE_ROWS):
            items = scoring_ready_items(plain[lo:lo + TABLE_ROWS], scoring)
            hi = lo + len(items)
            tile = items.astype(np.float32)
            for t in range(0, hi - lo, TRANSPOSE_ROWS):
                self._table[:, lo + t:lo + t + TRANSPOSE_ROWS] = (
                    tile[t:t + TRANSPOSE_ROWS].T)
            # euclidean: the re-score's exact ‖i‖², row-local bits
            sq[lo:hi] = ((items ** 2).sum(axis=1) if scoring == "euclidean"
                         else np.einsum("ij,ij->i", items, items))
        self._item_sq = sq if scoring == "euclidean" else None
        self._item_norm = float(np.sqrt(np.max(sq, initial=0.0)))
        self._uncertified = get_registry().counter(
            "serve.index.uncertified_rows",
            "rows whose float32 first pass was not certified and were "
            "re-scored over every item")

    @property
    def table_bytes(self) -> int:
        """Bytes held by the float32 first-pass table, ``n_items × dim
        × 4`` with no padding: half a float64 copy of the scoring-ready
        rows (the re-score reads ``rows``)."""
        return self._table.nbytes

    def _first_pass(self, block: np.ndarray, score,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Float32 ``(len(block), n_items)`` scores of a float64 user
        block, through the caller's ``score`` kernel: one panel that
        spans every row, so one GEMM against the transposed table."""
        vectors = block.astype(np.float32)
        scores = score(vectors, self._table.T[None], self.n_items, out=out)
        if self._item_sq is not None:
            return euclidean_scores(scores, vectors, self._item_sq,
                                    out=scores)
        return scores

    def _exact(self, block: np.ndarray, columns: np.ndarray | None,
               score) -> np.ndarray:
        """Float64 ``(len(block), len(columns))`` scores of ``columns``
        (every column when ``None``), packed from ``rows`` as
        :func:`build_panels` panels of ``panel_width``: each score has
        the bits a full-table float64 panel block gives it."""
        rows = self.rows if columns is None else self.rows[columns]
        items = scoring_ready_items(rows, self.scoring)
        scores = score(block, build_panels(items, self.panel_width),
                       len(items))
        if self._item_sq is not None:
            item_sq = (self._item_sq if columns is None
                       else self._item_sq[columns])
            return euclidean_scores(scores, block, item_sq, out=scores)
        return scores

    def topk(self, vectors: np.ndarray, k: int, seen, *, score, mask,
             rank) -> tuple[np.ndarray, np.ndarray]:
        """Score → mask → rank one chunk of users, a row block at a time.

        The one loop behind :meth:`ExactTopKIndex.topk` and
        :meth:`~repro.serve.shard.ItemShardIndex.partial_topk`.  Each
        :func:`row_blocks` block of ``vectors`` goes through:

        1. **First pass.**  The block is scored in float32 against the
           float32 table, in one GEMM, into one ``(block, n_items)``
           buffer, allocated once per call, and its seen items are
           masked.
        2. **Certificate.**  With ``t`` a row's
           :func:`~repro.eval.metrics.kth_group_max` and ``δ`` its
           :func:`score_margin`, ``thr = t - 2δ`` is rounded down to
           float32, and :func:`~repro.eval.metrics.columns_at_least`
           lists the row's columns scoring ``>= thr`` (one byte per
           score, freed before the re-score).  The row is
           *certified* when ``thr`` is finite; any other row — ``t``
           of ``-inf`` (too few unseen items), a non-finite value, norms
           where float32 could overflow — takes every column.
        3. **Re-score.**  The union of the block's candidates is scored
           in float64 through ``score`` with the same row block and
           panel width (:meth:`_exact`), so every score has the bits a
           full float64 block would give it.  A certified row is ranked
           over its own candidates; a row that took every column has
           its seen items masked again and is ranked over all of them.

        **Why a certified row is exact.**  ``δ`` bounds ``|s32 - s64|``
        for every item of the row.  Let ``T64`` be the row's ``k``-th
        float64 score over unseen items, and ``t32`` its ``k``-th
        first-pass one.  ``k`` groups hold an entry ``>= t``, unseen as
        ``t`` is finite, so ``t <= t32``; the ``k`` best first-pass
        columns score ``>= t32 - δ`` in float64, so ``T64 >= t32 - δ``.
        Every column ``j`` the canonical order can return has
        ``s64_j >= T64``, hence
        ``s32_j >= s64_j - δ >= T64 - δ >= t32 - 2δ >= t - 2δ``, at or
        above ``thr`` and its rounding down, and ``j`` is a candidate,
        boundary ties included; seen columns are ``-inf`` and never
        are.  Ranking the candidates by ``(score desc, column asc)``
        therefore returns the columns and float64 scores that ranking
        the whole row would.

        ``seen`` is ``None`` or ``(indptr, indices, positions)``: row
        ``r`` of ``vectors`` masks ``indices[indptr[p]:indptr[p + 1]]``
        with ``p = positions[r]``.  ``score`` / ``mask`` / ``rank`` are
        the **caller's** :func:`panel_scores`,
        :func:`~repro.eval.masking.mask_seen_items` and
        :func:`~repro.eval.metrics.rank_items`, passed in rather than
        called from here: ``bench/workloads.py`` attributes time per
        layer by patching those names in the calling module, so they
        must resolve there at call time.

        Returns ``(columns, scores)``, both ``(len(vectors), k)``: the
        top-``k`` column indices of this scorer's rows in canonical
        order, and their float64 scores.
        """
        top = np.empty((len(vectors), k), dtype=np.int64)
        top_scores = np.empty((len(vectors), k), dtype=np.float64)
        blocks = row_blocks(len(vectors))
        buffer = np.empty((max((hi - lo for lo, hi in blocks), default=0),
                           self.n_items), dtype=np.float32)
        for lo, hi in blocks:
            block = vectors[lo:hi]
            block_seen = None if seen is None else (*seen[:2], seen[2][lo:hi])
            # float32 overflow (inf, or NaN from inf - inf) only reaches
            # rows whose margin is inf, which are never certified
            with np.errstate(over="ignore", invalid="ignore"):
                first = self._first_pass(block, score, out=buffer[:hi - lo])
                if block_seen is not None:
                    mask(first, *block_seen)
                thr = kth_group_max(first, k) - 2 * score_margin(
                    np.sqrt(np.einsum("ij,ij->i", block, block)),
                    self._item_norm, self.dim, self.scoring)
                # rounded down, so that the compare runs in float32
                thr32 = thr.astype(np.float32)
                thr32[thr32 > thr] = np.nextafter(thr32[thr32 > thr], -np.inf)
            candidates, certified = columns_at_least(first, thr32, k,
                                                     self.n_items)
            full = np.flatnonzero(~certified)
            union = np.zeros(self.n_items + 1, dtype=bool)
            union[candidates] = True
            columns = None if full.size else np.flatnonzero(union[:-1])
            exact = self._exact(block, columns, score)

            slots = (candidates if columns is None
                     else np.searchsorted(columns, candidates))
            cand_scores = np.take_along_axis(
                exact, np.minimum(slots, exact.shape[1] - 1), axis=1)
            cand_scores[candidates == self.n_items] = -np.inf
            order = rank(cand_scores, k)
            top[lo:hi] = np.take_along_axis(candidates, order, axis=1)
            top_scores[lo:hi] = np.take_along_axis(cand_scores, order, axis=1)
            if full.size:
                self._uncertified.inc(int(full.size))
                if block_seen is not None:
                    mask(exact, *block_seen)
                exact = exact[full]
                order = rank(exact, k)
                top[lo + full] = order
                top_scores[lo + full] = np.take_along_axis(exact, order,
                                                           axis=1)
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
        Loaded 1×1 :class:`~repro.serve.shard.ShardedSnapshot`; any
        other shard count raises ``ValueError`` (its whole-table reads
        do).
    chunk_users:
        Users handed to the scorer at a time, the unit the sharded
        router also fans out per chunk.  The score buffer is bounded by
        :data:`ROW_BLOCK`, not by this: :meth:`PanelScorer.topk` scores
        a chunk in blocks of 64–127 rows (the whole chunk below 128).
    panel_width:
        Item rows per GEMM of the float64 re-score (default
        :data:`PANEL_WIDTH`); the float32 first pass scores the whole
        table in one GEMM per row block whatever the width.  Both sides
        of a sharded parity comparison must use the same width.
    """

    #: tag recorded in benchmarks and service cache keys
    kind = "exact"

    def __init__(self, snapshot, chunk_users: int = 256,
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
    def refreshed(self, snapshot) -> "ExactTopKIndex":
        """Rebuild this index over ``snapshot``, keeping tuning knobs.

        The exact index derives everything from the item table, so a
        refresh is a plain reconstruction.  The returned index serves
        ``snapshot`` — the receiver is untouched,
        so an in-flight request on the old index is never torn.
        """
        return type(self)(snapshot, chunk_users=self.chunk_users,
                          panel_width=self.scorer.panel_width)

