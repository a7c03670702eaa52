"""Build, persist and load ANN index directories.

An *ANN index directory* is the on-disk form of a trained IVF index,
laid out like a snapshot's shard directory and published by the same
routine (:mod:`repro.serve.snapshot`): plain ``.npy`` arrays plus a
content-hashed, schema-versioned ``manifest.json``:

* ``centroids.npy`` — ``(nlist, dim)`` coarse-quantizer centroids;
* ``list_indptr.npy`` / ``list_items.npy`` — the inverted lists in CSR
  layout, each list ascending in global item id;
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
import pathlib

import numpy as np

from repro.ann.ivf import (ANN_PANEL_WIDTH, IVFFlatIndex, IVFIndexData,
                           assign_lists, train_coarse_quantizer)
from repro.serve.index import scoring_ready_items
from repro.serve.shard import ShardedSnapshot
from repro.serve.snapshot import _content_version, _ManifestCodec, _publish

__all__ = ["ANN_INDEX_SCHEMA", "AnnManifest", "build_ann_index",
           "load_ann_index", "is_ann_index"]

#: Bump when the on-disk layout changes incompatibly.
ANN_INDEX_SCHEMA = "bsl-ann-index/v1"

_MANIFEST = "manifest.json"
_FILES = {
    "centroids": "centroids.npy",
    "list_indptr": "list_indptr.npy",
    "list_items": "list_items.npy",
}


@dataclasses.dataclass(frozen=True)
class AnnManifest(_ManifestCodec):
    """Identity card of one ANN index directory.

    ``version`` is a content hash over the arrays and the identity
    fields; ``snapshot_version`` ties the index to the exact snapshot
    export it was trained from.  Deliberately timestamp-free so builds
    are byte-reproducible.  ``kind`` is always ``"ivf"`` and ``spill``
    (the lists each item is filed in) always 1; both stay in the hashed
    identity so existing directories keep their ``version``.
    """

    _FILE = "ANN manifest"

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

    @classmethod
    def from_payload(cls, payload: dict) -> "AnnManifest":
        """Build from parsed ``manifest.json``, rejecting unknown fields.

        Directories written while an ``ivfpq`` kind existed carry a
        ``"pq": null`` field, dropped here; an ``ivfpq`` directory
        itself is refused, and so is one that files items in several
        lists (``spill`` other than 1).
        """
        if payload.get("kind") != "ivf":
            raise ValueError(
                f"ANN index kind {payload.get('kind')!r} is not supported: "
                f"the 'ivfpq' kind was removed; rebuild the directory as "
                f"an IVF index with `repro build-ann`")
        if payload.get("spill") != 1:
            raise ValueError(
                f"ANN index spill {payload.get('spill')!r} is not supported: "
                f"every item is in exactly one inverted list; rebuild the "
                f"directory with `repro build-ann`")
        payload.pop("pq", None)
        return super().from_payload(payload)


def _identity(manifest: AnnManifest) -> tuple:
    """The manifest fields folded into the content hash."""
    m = manifest
    return (ANN_INDEX_SCHEMA, m.kind, m.snapshot_version, m.scoring, m.dim,
            m.num_items, m.nlist, m.spill, m.default_nprobe, m.panel_width,
            m.train_iters, m.seed)


def _ann_version(arrays: dict[str, np.ndarray], identity: tuple) -> str:
    """Content hash over the index arrays plus the identity fields."""
    return _content_version(arrays["centroids"], arrays["list_indptr"],
                            arrays["list_items"], np.empty(0, np.int64),
                            identity)


def build_ann_index(snapshot: ShardedSnapshot, out_dir, *,
                    nlist: int = 16, default_nprobe: int = 2,
                    panel_width: int = ANN_PANEL_WIDTH,
                    train_iters: int = 25, seed: int = 0) -> IVFFlatIndex:
    """Train an IVF index from a snapshot and persist it.

    Runs the coarse quantizer on the scoring-ready item table, files
    each item in the inverted list of its nearest centroid, writes the
    index directory and returns the loaded serving index.  Bad
    parameters raise ``ValueError`` before anything is written, so the
    index already at ``out_dir`` stays loadable.

    Parameters
    ----------
    snapshot:
        Loaded 1×1 snapshot to train from (also the re-scoring source);
        a multi-shard set raises ``ValueError``.
    out_dir:
        Target directory (created if missing; files are overwritten).
    nlist, default_nprobe, panel_width, train_iters:
        Index geometry; see :mod:`repro.ann.ivf`.
    seed:
        Seeds the k-means; same snapshot + same parameters + same seed
        ⇒ byte-identical directory.
    """
    items_ready = scoring_ready_items(snapshot.items, snapshot.scoring)
    centroids, _ = train_coarse_quantizer(items_ready, nlist, seed=seed,
                                          n_iter=train_iters)
    data = IVFIndexData.from_lists(
        centroids, assign_lists(items_ready, centroids),
        num_items=snapshot.manifest.num_items,
        default_nprobe=default_nprobe)
    index = IVFFlatIndex(snapshot, data, nprobe=default_nprobe,
                         panel_width=panel_width)
    arrays = {"centroids": data.centroids,
              "list_indptr": data.list_indptr,
              "list_items": data.list_items}
    m = snapshot.manifest
    manifest = AnnManifest(
        schema=ANN_INDEX_SCHEMA,
        version="",
        kind=IVFFlatIndex.kind,
        snapshot_version=snapshot.version,
        model=m.model,
        dataset=m.dataset,
        scoring=m.scoring,
        dim=m.dim,
        num_items=m.num_items,
        num_users=m.num_users,
        nlist=data.nlist,
        spill=1,
        default_nprobe=data.default_nprobe,
        panel_width=panel_width,
        train_iters=train_iters,
        seed=seed)
    manifest = dataclasses.replace(
        manifest, version=_ann_version(arrays, _identity(manifest)))
    # Staged and published like a snapshot, so a killed rebuild leaves
    # the previous index loadable.
    with _publish(pathlib.Path(out_dir), _MANIFEST) as staging:
        for name, fname in _FILES.items():
            np.save(staging / fname, arrays[name])
        (staging / _MANIFEST).write_text(manifest.to_json() + "\n")
    return index


def _read_manifest(path: pathlib.Path) -> AnnManifest:
    """Parse and schema-check the manifest of an index directory."""
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no ANN index manifest at {manifest_path}")
    manifest = AnnManifest.from_json(manifest_path.read_text())
    if manifest.schema != ANN_INDEX_SCHEMA:
        raise ValueError(f"ANN index schema {manifest.schema!r} is not "
                         f"{ANN_INDEX_SCHEMA!r}")
    return manifest


def _read_data(path: pathlib.Path, manifest: AnnManifest,
               verify: bool) -> IVFIndexData:
    """Load the arrays of an index directory, re-hashing under ``verify``."""
    arrays = {name: np.load(path / fname, allow_pickle=False)
              for name, fname in _FILES.items()}
    if verify and (_ann_version(arrays, _identity(manifest))
                   != manifest.version):
        raise ValueError(
            f"ANN index content hash does not match manifest version "
            f"{manifest.version!r}; files were modified after build")
    return IVFIndexData(arrays["centroids"], arrays["list_indptr"],
                        arrays["list_items"],
                        num_items=manifest.num_items,
                        default_nprobe=manifest.default_nprobe)


def load_ann_index(path, snapshot: ShardedSnapshot, *,
                   verify: bool = False) -> IVFFlatIndex:
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
    manifest = _read_manifest(path)
    if manifest.snapshot_version != snapshot.version:
        raise ValueError(
            f"ANN index was built from snapshot "
            f"{manifest.snapshot_version!r} but the loaded snapshot is "
            f"{snapshot.version!r}; rebuild with `repro build-ann`")
    return IVFFlatIndex(snapshot, _read_data(path, manifest, verify),
                        nprobe=manifest.default_nprobe,
                        panel_width=manifest.panel_width)


def is_ann_index(path) -> bool:
    """True if ``path`` holds an ANN index directory."""
    path = pathlib.Path(path)
    return (path / _MANIFEST).is_file() and (path / "centroids.npy").is_file()
