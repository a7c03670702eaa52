"""Build, persist and load ANN index directories.

An *ANN index directory* is the on-disk form of a trained IVF(-PQ)
index, mirroring the :mod:`repro.serve.snapshot` conventions: plain
``.npy`` arrays plus a content-hashed, schema-versioned
``manifest.json``:

* ``centroids.npy`` — ``(nlist, dim)`` coarse-quantizer centroids;
* ``list_indptr.npy`` / ``list_items.npy`` — the inverted lists in CSR
  layout, each list ascending in global item id;
* ``pq_codebooks.npy`` / ``pq_codes.npy`` — only for ``kind="ivfpq"``;
* ``manifest.json`` — an :class:`AnnManifest` recording the build
  parameters, the **source snapshot's content version** (so a service
  can refuse an index built from a different export) and a content
  hash over the arrays (tamper detection under ``verify=True``).

Unlike snapshot manifests, ANN manifests carry **no timestamp**: a
build is a pure function of ``(snapshot, parameters, seed)``, so two
builds with the same inputs are byte-identical on disk — pinned by
``tests/test_ann.py`` and the contract behind ``build-ann --seed``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

from repro.ann.ivf import (ANN_PANEL_WIDTH, IVFFlatIndex, IVFIndexData,
                           assign_lists, train_coarse_quantizer)
from repro.ann.pq import (IVFPQIndex, ProductQuantizer, encode_residuals,
                          train_product_quantizer)
from repro.serve.index import scoring_ready_items
from repro.serve.snapshot import (EmbeddingSnapshot, _content_version,
                                  _publish_files)

__all__ = ["ANN_INDEX_SCHEMA", "ANN_KINDS", "AnnManifest",
           "build_ann_index", "save_ann_index", "load_ann_index",
           "load_ann_generator", "is_ann_index"]

#: Bump when the on-disk layout changes incompatibly.
ANN_INDEX_SCHEMA = "bsl-ann-index/v1"

#: Index kinds the builder/loader understand.
ANN_KINDS = ("ivf", "ivfpq")

_MANIFEST = "manifest.json"
_FILES = {
    "centroids": "centroids.npy",
    "list_indptr": "list_indptr.npy",
    "list_items": "list_items.npy",
}
_PQ_FILES = {
    "pq_codebooks": "pq_codebooks.npy",
    "pq_codes": "pq_codes.npy",
}


@dataclasses.dataclass(frozen=True)
class AnnManifest:
    """Identity card of one ANN index directory.

    ``version`` is a content hash over the arrays and the identity
    fields; ``snapshot_version`` ties the index to the exact snapshot
    export it was trained from.  Deliberately timestamp-free so builds
    are byte-reproducible.
    """

    schema: str
    version: str
    kind: str
    snapshot_version: str
    model: str
    dataset: str
    scoring: str
    dim: int
    num_items: int
    num_users: int
    nlist: int
    spill: int
    default_nprobe: int
    panel_width: int
    train_iters: int
    seed: int
    pq: dict | None = None

    def to_json(self) -> str:
        """Serialize to the ``manifest.json`` on-disk representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnnManifest":
        """Parse ``manifest.json`` text, rejecting unknown fields."""
        payload = json.loads(text)
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"ANN manifest has unknown fields "
                             f"{sorted(unknown)}; written by a newer schema?")
        return cls(**payload)


def _identity(manifest: AnnManifest) -> tuple:
    """The manifest fields folded into the content hash."""
    m = manifest
    return (ANN_INDEX_SCHEMA, m.kind, m.snapshot_version, m.scoring, m.dim,
            m.num_items, m.nlist, m.spill, m.default_nprobe, m.panel_width,
            m.train_iters, m.seed)


def _ann_version(arrays: dict[str, np.ndarray], identity: tuple) -> str:
    """Content hash over the index arrays plus the identity fields."""
    ordered = [arrays[name] for name in sorted(arrays)]
    pad = np.empty(0, dtype=np.int64)
    # _content_version hashes exactly four arrays; fold extras pairwise.
    while len(ordered) < 4:
        ordered.append(pad)
    version = _content_version(ordered[0], ordered[1], ordered[2],
                               ordered[3], identity)
    for extra in ordered[4:]:
        version = _content_version(extra, pad, pad, pad,
                                   (version,))
    return version


def build_ann_index(snapshot: EmbeddingSnapshot, out_dir, *,
                    kind: str = "ivf", nlist: int = 16, spill: int = 1,
                    default_nprobe: int = 2,
                    panel_width: int = ANN_PANEL_WIDTH,
                    train_iters: int = 25, seed: int = 0,
                    pq_m: int = 8, pq_ks: int = 32):
    """Train an IVF(-PQ) index from a snapshot and persist it.

    Runs the coarse quantizer on the scoring-ready item table, builds
    the inverted lists (``spill`` nearest lists per item), optionally
    trains PQ codebooks on the posting residuals, writes the index
    directory and returns the loaded serving index.

    Parameters
    ----------
    snapshot:
        Loaded snapshot to train from (also the re-scoring source).
    out_dir:
        Target directory (created if missing; files are overwritten).
    kind:
        ``"ivf"`` (flat re-scoring only) or ``"ivfpq"`` (ADC shortlist
        + exact refinement).
    nlist, spill, default_nprobe, panel_width, train_iters:
        Index geometry; see :mod:`repro.ann.ivf`.
    seed:
        Seeds every k-means involved; same snapshot + same parameters +
        same seed ⇒ byte-identical directory.
    pq_m, pq_ks:
        Subquantizer count / codewords per subspace (``kind="ivfpq"``).
    """
    if kind not in ANN_KINDS:
        raise ValueError(f"unknown ANN index kind {kind!r}; "
                         f"available: {ANN_KINDS}")
    if kind == "ivfpq" and snapshot.manifest.scoring == "euclidean":
        raise ValueError("IVF-PQ does not support euclidean-scoring "
                         "snapshots; use kind='ivf'")
    items_ready = scoring_ready_items(snapshot.items, snapshot.scoring)
    centroids, _ = train_coarse_quantizer(items_ready, nlist, seed=seed,
                                          n_iter=train_iters)
    lists = assign_lists(items_ready, centroids, spill=spill)
    list_indptr = np.concatenate(
        [np.zeros(1, np.int64),
         np.cumsum([len(l) for l in lists])]).astype(np.int64)
    list_items = (np.concatenate(lists) if len(lists)
                  else np.empty(0, np.int64)).astype(np.int64)
    data = IVFIndexData(centroids, list_indptr, list_items,
                        num_items=snapshot.manifest.num_items,
                        default_nprobe=default_nprobe)

    arrays = {"centroids": centroids, "list_indptr": list_indptr,
              "list_items": list_items}
    pq_payload = None
    if kind == "ivfpq":
        owner = np.repeat(np.arange(nlist, dtype=np.int64),
                          np.diff(list_indptr))
        residuals = items_ready[list_items] - centroids[owner]
        codebooks = train_product_quantizer(residuals, m=pq_m, ks=pq_ks,
                                            seed=seed,
                                            n_iter=train_iters)
        codes = encode_residuals(residuals, codebooks)
        arrays["pq_codebooks"] = codebooks
        arrays["pq_codes"] = codes
        pq_payload = {"m": int(codebooks.shape[0]),
                      "ks": int(codebooks.shape[1])}

    m = snapshot.manifest
    manifest = AnnManifest(
        schema=ANN_INDEX_SCHEMA,
        version="",
        kind=kind,
        snapshot_version=snapshot.version,
        model=m.model,
        dataset=m.dataset,
        scoring=m.scoring,
        dim=m.dim,
        num_items=m.num_items,
        num_users=m.num_users,
        nlist=nlist,
        spill=spill,
        default_nprobe=default_nprobe,
        panel_width=panel_width,
        train_iters=train_iters,
        seed=seed,
        pq=pq_payload)
    manifest = dataclasses.replace(
        manifest, version=_ann_version(arrays, _identity(manifest)))
    _write_index(out_dir, manifest, arrays)
    return _make_index(manifest, data, arrays, snapshot)


def _write_index(out_dir, manifest: AnnManifest, arrays: dict) -> None:
    """Persist one ANN index directory (arrays + manifest).

    Staged and published like a snapshot: a killed rebuild leaves the
    previous index loadable, and the PQ files of a previous ``ivfpq``
    build go only once the new manifest has landed.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = dict(_FILES, **_PQ_FILES) if manifest.pq is not None else _FILES
    _publish_files(out_dir,
                   {fname: arrays[name] for name, fname in files.items()},
                   manifest)
    if manifest.pq is None:
        for stale in _PQ_FILES.values():
            (out_dir / stale).unlink(missing_ok=True)


def save_ann_index(index, out_dir) -> AnnManifest:
    """Persist a live IVF(-PQ) serving index as an index directory.

    The complement of :func:`build_ann_index` for indexes that were not
    trained from scratch — typically the output of
    :meth:`~repro.ann.ivf.IVFFlatIndex.refreshed` after a delta chain.
    The directory round-trips through :func:`load_ann_index` against
    the index's current snapshot.  ``train_iters`` and ``seed`` are
    recorded as ``0``: an incrementally maintained index is a function
    of its maintenance history, not of one k-means run.
    """
    if not isinstance(index, IVFFlatIndex):
        raise TypeError(f"expected an IVF serving index, "
                        f"got {type(index).__name__}")
    data = index.data
    arrays = {"centroids": data.centroids,
              "list_indptr": data.list_indptr,
              "list_items": data.list_items}
    pq_payload = None
    if isinstance(index, IVFPQIndex):
        arrays["pq_codebooks"] = index.pq.codebooks
        arrays["pq_codes"] = index.pq.codes
        pq_payload = {"m": int(index.pq.m), "ks": int(index.pq.ks)}
    m = index.snapshot.manifest
    manifest = AnnManifest(
        schema=ANN_INDEX_SCHEMA,
        version="",
        kind=index.kind,
        snapshot_version=index.snapshot.version,
        model=m.model,
        dataset=m.dataset,
        scoring=m.scoring,
        dim=m.dim,
        num_items=m.num_items,
        num_users=m.num_users,
        nlist=data.nlist,
        spill=data.spill,
        default_nprobe=data.default_nprobe,
        panel_width=index.panel_width,
        train_iters=0,
        seed=0,
        pq=pq_payload)
    manifest = dataclasses.replace(
        manifest, version=_ann_version(arrays, _identity(manifest)))
    _write_index(out_dir, manifest, arrays)
    return manifest


def _make_index(manifest: AnnManifest, data: IVFIndexData,
                arrays: dict, snapshot: EmbeddingSnapshot):
    """Instantiate the serving index matching a manifest's kind."""
    if manifest.kind == "ivfpq":
        pq = ProductQuantizer(arrays["pq_codebooks"], arrays["pq_codes"])
        return IVFPQIndex(snapshot, data, pq,
                          nprobe=manifest.default_nprobe,
                          panel_width=manifest.panel_width)
    return IVFFlatIndex(snapshot, data, nprobe=manifest.default_nprobe,
                        panel_width=manifest.panel_width)


def load_ann_index(path, snapshot: EmbeddingSnapshot, *,
                   verify: bool = False):
    """Open an ANN index directory against its source snapshot.

    Parameters
    ----------
    path:
        Index directory written by :func:`build_ann_index`.
    snapshot:
        The snapshot to serve from; its content version must match the
        manifest's ``snapshot_version`` — an index trained on one
        export must not silently re-score a different one.
    verify:
        Re-hash the arrays and fail loudly on any mismatch with the
        manifest's ``version`` (detects truncated or edited files).
    """
    path = pathlib.Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no ANN index manifest at {manifest_path}")
    manifest = AnnManifest.from_json(manifest_path.read_text())
    if manifest.schema != ANN_INDEX_SCHEMA:
        raise ValueError(f"ANN index schema {manifest.schema!r} is not "
                         f"{ANN_INDEX_SCHEMA!r}")
    if manifest.kind not in ANN_KINDS:
        raise ValueError(f"unknown ANN index kind {manifest.kind!r}")
    if manifest.snapshot_version != snapshot.version:
        raise ValueError(
            f"ANN index was built from snapshot "
            f"{manifest.snapshot_version!r} but the loaded snapshot is "
            f"{snapshot.version!r}; rebuild with `repro build-ann`")
    arrays = {name: np.load(path / fname, allow_pickle=False)
              for name, fname in _FILES.items()}
    if manifest.kind == "ivfpq":
        arrays.update({name: np.load(path / fname, allow_pickle=False)
                       for name, fname in _PQ_FILES.items()})
    if verify:
        if _ann_version(arrays, _identity(manifest)) != manifest.version:
            raise ValueError(
                f"ANN index content hash does not match manifest version "
                f"{manifest.version!r}; files were modified after build")
    data = IVFIndexData(arrays["centroids"], arrays["list_indptr"],
                        arrays["list_items"],
                        num_items=manifest.num_items,
                        default_nprobe=manifest.default_nprobe)
    return _make_index(manifest, data, arrays, snapshot)


def load_ann_generator(path, *, snapshot=None,
                       verify: bool = False) -> IVFIndexData:
    """Open only the candidate-generation part of an ANN index directory.

    Returns the :class:`~repro.ann.ivf.IVFIndexData` (centroids +
    inverted lists) without binding it to an unsharded snapshot — the
    form the sharded router consumes (``ShardedTopKIndex(ann=...)``),
    where item rows live in the shards and only candidates are needed.

    Parameters
    ----------
    snapshot:
        Optional snapshot-like object (unsharded or sharded) to check
        structural compatibility against: catalogue size, embedding
        dim and scoring must match.  A sharded snapshot's content
        version intentionally differs from the unsharded export the
        index was built from, so only structure is checked here — the
        strict ``snapshot_version`` match lives in
        :func:`load_ann_index`.
    verify:
        Re-hash the directory's arrays (including PQ files for an
        ``ivfpq`` index) and fail loudly on any mismatch with the
        manifest's content ``version``.
    """
    path = pathlib.Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no ANN index manifest at {manifest_path}")
    manifest = AnnManifest.from_json(manifest_path.read_text())
    if manifest.schema != ANN_INDEX_SCHEMA:
        raise ValueError(f"ANN index schema {manifest.schema!r} is not "
                         f"{ANN_INDEX_SCHEMA!r}")
    if snapshot is not None:
        m = snapshot.manifest
        mismatches = [
            (field, got, want)
            for field, got, want in (("num_items", m.num_items,
                                      manifest.num_items),
                                     ("dim", m.dim, manifest.dim),
                                     ("scoring", m.scoring,
                                      manifest.scoring))
            if got != want]
        if mismatches:
            detail = ", ".join(f"{f}: snapshot has {g!r}, index expects {w!r}"
                               for f, g, w in mismatches)
            raise ValueError(f"ANN index at {path} does not fit this "
                             f"snapshot ({detail})")
    arrays = {name: np.load(path / fname, allow_pickle=False)
              for name, fname in _FILES.items()}
    if verify:
        hashed = dict(arrays)
        if manifest.kind == "ivfpq":
            hashed.update({name: np.load(path / fname, allow_pickle=False)
                           for name, fname in _PQ_FILES.items()})
        if _ann_version(hashed, _identity(manifest)) != manifest.version:
            raise ValueError(
                f"ANN index content hash does not match manifest version "
                f"{manifest.version!r}; files were modified after build")
    return IVFIndexData(arrays["centroids"], arrays["list_indptr"],
                        arrays["list_items"],
                        num_items=manifest.num_items,
                        default_nprobe=manifest.default_nprobe)


def is_ann_index(path) -> bool:
    """True if ``path`` holds an ANN index directory."""
    path = pathlib.Path(path)
    return (path / _MANIFEST).is_file() and (path / "centroids.npy").is_file()
