"""Product quantization of IVF residuals, with asymmetric distance tables.

The IVF-PQ variant compresses each inverted-list posting to a few bytes:
the item's **residual** against its list's centroid is cut into ``m``
subvectors, and each subvector is replaced by the index of its nearest
codeword in a per-subspace codebook (trained with the repo's own
k-means).  At search time a user's **asymmetric distance (ADC) tables**
— the inner products between the user's subvectors and every codeword —
turn scoring a posting into ``m`` table lookups plus the centroid term:

    score_adc(u, i in list c)  =  u·centroid_c  +  Σ_s  LUT[s, code[i, s]]

ADC scores select a per-user **shortlist** inside each probed list; the
shortlist is then re-scored *exactly* through the same fixed-shape
panel GEMMs as :class:`~repro.ann.ivf.IVFFlatIndex` (Faiss's
``IndexRefineFlat`` pattern), so the returned scores remain directly
comparable to the exact index.  The PQ approximation therefore only
affects *which* candidates survive to the final ranking — measurable as
recall in the ANN benchmark — never the score values themselves.

At this repo's numpy-only scale the ADC pass is a fidelity model, not a
speedup (BLAS GEMMs outrun table gathers in numpy); what PQ buys here
is the candidate tier's memory story: ``m`` uint8 codes per posting
versus ``dim`` float64 values per item row.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.kmeans import kmeans, sq_dists
from repro.ann.ivf import ANN_PANEL_WIDTH, IVFFlatIndex, IVFIndexData
from repro.serve.snapshot import EmbeddingSnapshot

__all__ = ["ProductQuantizer", "train_product_quantizer",
           "encode_residuals", "adc_lookup_tables", "carry_codes",
           "IVFPQIndex"]


class ProductQuantizer:
    """Per-subspace codebooks plus the codes of every IVF posting.

    Parameters
    ----------
    codebooks:
        ``(m, ks, dsub)`` float64 — ``ks`` codewords per subspace.
    codes:
        ``(num_postings, m)`` uint8 — one code row per entry of the
        owning index's ``list_items`` (spilled items carry one code per
        list they appear in, each against that list's centroid).
    """

    def __init__(self, codebooks: np.ndarray, codes: np.ndarray):
        codebooks = np.asarray(codebooks, dtype=np.float64)
        codes = np.asarray(codes, dtype=np.uint8)
        if codebooks.ndim != 3:
            raise ValueError("codebooks must be (m, ks, dsub)")
        if codes.ndim != 2 or codes.shape[1] != codebooks.shape[0]:
            raise ValueError("codes must be (num_postings, m)")
        if codes.size and codes.max() >= codebooks.shape[1]:
            raise ValueError("codes reference codewords beyond ks")
        self.codebooks = codebooks
        self.codes = codes

    @property
    def m(self) -> int:
        """Number of subquantizers."""
        return self.codebooks.shape[0]

    @property
    def ks(self) -> int:
        """Codewords per subspace."""
        return self.codebooks.shape[1]

    @property
    def dsub(self) -> int:
        """Dimensions per subvector."""
        return self.codebooks.shape[2]

    @property
    def code_bytes(self) -> int:
        """Bytes held by the posting codes (the compressed catalogue)."""
        return self.codes.nbytes

    @property
    def table_bytes(self) -> int:
        """Bytes held by codes plus codebooks."""
        return self.codes.nbytes + self.codebooks.nbytes

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Reconstruct residual vectors for posting ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        parts = [self.codebooks[s, self.codes[rows, s]]
                 for s in range(self.m)]
        return np.concatenate(parts, axis=-1)


def train_product_quantizer(residuals: np.ndarray, m: int = 8,
                            ks: int = 32, seed: int = 0,
                            n_iter: int = 25) -> np.ndarray:
    """Train per-subspace codebooks on the posting residuals.

    Each of the ``m`` subspaces gets its own k-means over the matching
    residual slice; the rng is derived from ``seed`` and the subspace
    index, so builds are deterministic.  Returns ``(m, ks, dsub)``
    codebooks.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n, dim = residuals.shape
    if m <= 0 or dim % m != 0:
        raise ValueError(f"m={m} must divide dim={dim}")
    ks = min(ks, n)
    if ks <= 0:
        raise ValueError("need at least one posting to train on")
    dsub = dim // m
    codebooks = np.empty((m, ks, dsub), dtype=np.float64)
    for s in range(m):
        sub = residuals[:, s * dsub:(s + 1) * dsub]
        codebooks[s], _ = kmeans(sub, ks, n_iter=n_iter,
                                 rng=np.random.default_rng((seed, s)))
    return codebooks


def encode_residuals(residuals: np.ndarray,
                     codebooks: np.ndarray) -> np.ndarray:
    """Nearest-codeword codes for every residual row, ``(n, m)`` uint8."""
    n = len(residuals)
    m, ks, dsub = codebooks.shape
    codes = np.empty((n, m), dtype=np.uint8)
    for s in range(m):
        sub = residuals[:, s * dsub:(s + 1) * dsub]
        codes[:, s] = sq_dists(sub, codebooks[s]).argmin(axis=1)
    return codes


def adc_lookup_tables(vectors: np.ndarray,
                      codebooks: np.ndarray) -> np.ndarray:
    """Inner products of user subvectors with every codeword.

    Returns ``(len(vectors), m, ks)`` — the asymmetric distance tables:
    ``LUT[u, s, code]`` is the contribution of subspace ``s`` to the
    ADC score when a posting stores ``code`` there.
    """
    m, ks, dsub = codebooks.shape
    out = np.empty((len(vectors), m, ks), dtype=np.float64)
    for s in range(m):
        out[:, s] = vectors[:, s * dsub:(s + 1) * dsub] @ codebooks[s].T
    return out


def carry_codes(pq: ProductQuantizer, code_map: np.ndarray,
                data: IVFIndexData,
                items_ready: np.ndarray) -> ProductQuantizer:
    """Posting codes for an incrementally updated index.

    ``code_map[p]`` names the old posting whose stored code new posting
    ``p`` inherits, or ``-1`` when the posting must be re-encoded —
    against the **frozen** ``pq.codebooks`` and the owning list's
    centroid in ``data`` (exactly how a full re-encode of the new state
    would compute it, so carried and fresh codes are indistinguishable).
    """
    code_map = np.asarray(code_map, dtype=np.int64)
    if len(code_map) != len(data.list_items):
        raise ValueError(f"code_map covers {len(code_map)} postings but the "
                         f"index has {len(data.list_items)}")
    codes = np.empty((len(code_map), pq.m), dtype=np.uint8)
    carried = code_map >= 0
    codes[carried] = pq.codes[code_map[carried]]
    fresh = np.flatnonzero(~carried)
    if len(fresh):
        owner = np.repeat(np.arange(data.nlist, dtype=np.int64), data.sizes)
        residuals = (items_ready[data.list_items[fresh]]
                     - data.centroids[owner[fresh]])
        codes[fresh] = encode_residuals(residuals, pq.codebooks)
    return ProductQuantizer(pq.codebooks, codes)


class IVFPQIndex(IVFFlatIndex):
    """IVF-PQ with exact refinement of the ADC shortlist.

    The chunk pipeline — and with it the ``ann.ivf.*`` counters and
    spans — is :class:`IVFFlatIndex`'s.  The one added step is
    :meth:`_refine_list`: inside each probed list the ADC scores pick a
    per-user shortlist of ``max(refine * k, k + |seen|)`` postings, and
    everything outside it is masked before the list's exact-scored
    block is ranked.  The shortlist floor mirrors the over-fetch
    contract: ``filter_seen`` masking can never starve the top-``k``.

    Parameters
    ----------
    pq:
        Trained :class:`ProductQuantizer` aligned with ``data``'s
        postings.
    refine:
        Shortlist size as a multiple of ``k`` (Faiss's ``k_factor``).
    """

    kind = "ivfpq"

    def __init__(self, snapshot: EmbeddingSnapshot, data: IVFIndexData,
                 pq: ProductQuantizer, nprobe: int | None = None,
                 refine: int = 4, chunk_users: int = 1024,
                 panel_width: int = ANN_PANEL_WIDTH):
        super().__init__(snapshot, data, nprobe=nprobe,
                         chunk_users=chunk_users, panel_width=panel_width)
        if snapshot.scoring == "euclidean":
            raise ValueError(
                "IVF-PQ asymmetric distance tables are inner-product "
                "formulated; euclidean-scoring snapshots are only "
                "supported by the IVF-Flat index")
        if len(pq.codes) != len(data.list_items):
            raise ValueError(
                f"PQ holds {len(pq.codes)} codes but the index has "
                f"{len(data.list_items)} postings")
        if refine < 1:
            raise ValueError(f"refine must be >= 1, got {refine}")
        self.pq = pq
        self.refine = refine

    @property
    def table_bytes(self) -> int:
        """Quantizer + lists + panels + PQ codes and codebooks."""
        return super().table_bytes + self.pq.table_bytes

    # ------------------------------------------------------------------
    def refreshed(self, snapshot: EmbeddingSnapshot, *,
                  staleness_threshold: float | None = 0.5,
                  recluster_lists: int = 1) -> "IVFPQIndex":
        """Incrementally rebuilt IVF-PQ for a new snapshot generation.

        Inverted lists are maintained exactly as in
        :meth:`~repro.ann.ivf.IVFFlatIndex.refreshed`; posting codes
        ride along through the code map — surviving postings keep their
        stored bytes, while inserted items, changed rows and postings
        of re-centered lists are re-encoded against the (frozen)
        codebooks.  Codebooks are never retrained on refresh: code
        maintenance is therefore byte-identical to a full re-encode of
        the new state with the same codebooks, which is the oracle
        ``tests/test_live_index.py`` pins.
        """
        data, code_map, items_ready = self._refreshed_data(
            snapshot, staleness_threshold, recluster_lists)
        pq = carry_codes(self.pq, code_map, data, items_ready)
        return type(self)(snapshot, data, pq,
                          nprobe=min(self.nprobe, data.nlist),
                          refine=self.refine, chunk_users=self.chunk_users,
                          panel_width=self.panel_width)

    # ------------------------------------------------------------------
    def _refine_list(self, scores: np.ndarray, vectors: np.ndarray,
                     users: np.ndarray, c: int, k: int,
                     filter_seen: bool) -> np.ndarray:
        """Mask list ``c``'s exact block down to each row's ADC shortlist.

        The shortlist is taken inside every probed list rather than
        once over a user's whole candidate set, so the survivors are a
        superset of a single per-user shortlist of the same size:
        recall can only rise.
        """
        shortlist = int(max(self.refine * k,
                            k + (self._seen_counts[users].max()
                                 if filter_seen else 0)))
        if shortlist >= scores.shape[1]:
            return scores
        # ADC: centroid term of the list + codeword lookups
        lo, hi = self.data.list_indptr[c:c + 2]
        codes = self.pq.codes[lo:hi]
        luts = adc_lookup_tables(vectors, self.pq.codebooks)
        adc = (vectors @ self.data.centroids[c])[:, None] + sum(
            luts[:, s, codes[:, s]] for s in range(self.pq.m))
        keep = np.argpartition(-adc, shortlist - 1, axis=1)[:, :shortlist]
        pruned = np.full_like(scores, -np.inf)
        np.put_along_axis(pruned, keep,
                          np.take_along_axis(scores, keep, axis=1), axis=1)
        return pruned

    def __repr__(self) -> str:
        return (f"IVFPQIndex(nlist={self.data.nlist}, nprobe={self.nprobe}, "
                f"m={self.pq.m}, ks={self.pq.ks}, refine={self.refine}, "
                f"snapshot={self.snapshot.version!r})")
