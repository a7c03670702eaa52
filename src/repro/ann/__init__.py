"""Approximate retrieval: IVF candidate generation over serve snapshots.

The exact serving indexes in :mod:`repro.serve` score every catalogue
item for every request, so per-request cost grows linearly with the
catalogue.  This package adds the retrieval tier of a two-stage
recommender: an **inverted-file (IVF) index** trained from any serve
snapshot with the repo's own k-means
(:func:`repro.analysis.kmeans.kmeans`), which generates a small
per-user *candidate set* and re-scores only those candidates — exactly,
through the same fixed-shape panel GEMMs as the exact index — so the
scores it returns are directly comparable to
:class:`~repro.serve.index.ExactTopKIndex`.

* :mod:`repro.ann.ivf` — coarse quantizer + inverted lists +
  ``nprobe``-controlled search (:class:`IVFIndexData`,
  :class:`IVFFlatIndex`).  Search runs list-major — one scoring GEMM
  per probed list over the chunk users probing it, then a per-user
  merge of the partial top-k lists — and the ``nprobe == nlist``
  configuration degenerates to the exact index's computation
  (bit-identical items and scores).
* :mod:`repro.ann.build` — snapshot → on-disk index directory with a
  content-hashed ``manifest.json`` mirroring the
  :mod:`repro.serve.snapshot` conventions
  (:func:`build_ann_index` / :func:`load_ann_index`).

:class:`IVFFlatIndex` speaks the same ``topk`` protocol as
:class:`~repro.serve.index.ExactTopKIndex`, so it drops into
:class:`~repro.serve.service.RecommendationService` unchanged
(``index=...``) on an unsharded snapshot; the sharded router always
scores exactly.  See ``docs/ann.md`` for the full contract.
"""

from repro.ann.build import (ANN_INDEX_SCHEMA, AnnManifest, build_ann_index,
                             is_ann_index, load_ann_index)
from repro.ann.ivf import (ANN_PANEL_WIDTH, IVFFlatIndex, IVFIndexData,
                           assign_lists, train_coarse_quantizer)

__all__ = [
    "ANN_INDEX_SCHEMA", "AnnManifest", "build_ann_index", "load_ann_index",
    "is_ann_index",
    "ANN_PANEL_WIDTH", "IVFIndexData", "IVFFlatIndex",
    "train_coarse_quantizer", "assign_lists",
]
