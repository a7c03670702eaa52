"""Frozen embedding snapshots: the training → serving hand-off format.

A *snapshot* is a directory holding everything the online stack needs to
answer "what do we recommend to user ``u``?" without ever touching the
training graph again:

* ``user_embeddings.npy`` / ``item_embeddings.npy`` — the backbone's
  **final** embedding tables with graph propagation already applied
  (``model.propagate()`` in eval mode), stored as plain ``.npy`` so they
  can be memory-mapped read-only by any number of serving processes;
* ``seen_indptr.npy`` / ``seen_items.npy`` — the training interactions
  in CSR layout, consumed by :func:`repro.eval.masking.mask_seen_items`
  to filter already-seen items at request time;
* ``manifest.json`` — a versioned :class:`SnapshotManifest` recording
  the model, sizes, scoring function and a content hash, so a service
  can detect stale caches and refuse mismatched artifacts.

Because propagation is baked in at export time, serving cost is one
dense gather + matmul per request batch regardless of backbone depth —
a LightGCN-3 snapshot serves exactly as fast as an MF snapshot.

**Sharded snapshots.**  :func:`export_sharded_snapshot` writes the same
content horizontally partitioned for multi-process serving: a directory
of *user shards* (embedding rows + seen-item CSR for a subset of users)
and *item shards* (embedding rows for a subset of the catalogue), under
a content-hashed top-level ``shards.json``.  Users and items partition
independently (``partition_by`` ∈ ``user``/``item``/``both``) with
either ``contiguous`` range or ``hash`` (``id % n``) placement.  The
scatter-gather reader lives in :mod:`repro.serve.shard` /
:mod:`repro.serve.router`; the partitioning and merge contract is
documented in ``docs/sharding.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
import time

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.eval.masking import seen_items_csr
from repro.models.base import Recommender

__all__ = ["SNAPSHOT_SCHEMA", "SHARD_SCHEMA", "SHARDED_SCHEMA",
           "SnapshotManifest", "ShardManifest", "ShardedManifest",
           "EmbeddingSnapshot", "SnapshotIntegrityError",
           "export_snapshot", "load_snapshot", "quarantine_snapshot",
           "partition_ids", "export_sharded_snapshot",
           "export_sharded_source_snapshot", "is_sharded_snapshot"]

#: Bump when the on-disk layout changes incompatibly.
SNAPSHOT_SCHEMA = "bsl-serve-snapshot/v1"

#: Schema of one shard directory's ``manifest.json``.
SHARD_SCHEMA = "bsl-serve-shard/v1"

#: Schema of a sharded snapshot's top-level ``shards.json``.
SHARDED_SCHEMA = "bsl-serve-sharded/v1"

#: Partitioning strategies accepted by :func:`partition_ids`.
PARTITION_STRATEGIES = ("contiguous", "hash")

_SHARDS_MANIFEST = "shards.json"

_FILES = {
    "users": "user_embeddings.npy",
    "items": "item_embeddings.npy",
    "seen_indptr": "seen_indptr.npy",
    "seen_items": "seen_items.npy",
}
_MANIFEST = "manifest.json"

#: staging-directory prefix of the crash-safe exporters
_STAGING_PREFIX = ".staging-"


class SnapshotIntegrityError(RuntimeError):
    """A snapshot failed its content-hash verify (or did not load).

    Raised by
    :meth:`repro.serve.service.RecommendationService.refresh_from_path`
    when the candidate snapshot is rejected: the service keeps serving
    its last-good version and, with quarantine enabled, the bad
    directory is moved aside (``quarantined_to``) so a retry loop does
    not keep re-reading the same damaged files.
    """

    def __init__(self, message: str, *, quarantined_to=None):
        super().__init__(message)
        self.quarantined_to = quarantined_to


def _staging_dir(out_dir: pathlib.Path) -> pathlib.Path:
    """Fresh staging directory *inside* ``out_dir`` (same filesystem, so
    every ``os.replace`` out of it is an atomic rename)."""
    return pathlib.Path(tempfile.mkdtemp(prefix=_STAGING_PREFIX,
                                         dir=out_dir))


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory tmp file + rename,
    so readers never observe a partially written file."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        pathlib.Path(tmp).unlink(missing_ok=True)
        raise


def _publish_files(out_dir: pathlib.Path, arrays: dict[str, np.ndarray],
                   manifest) -> None:
    """Crash-safe publish of ``{file name: array}`` plus ``manifest.json``.

    The one write sequence of every flat artifact directory (snapshot,
    delta, ANN index): each file is fully written into a staging
    directory on the same filesystem, then published with
    ``os.replace`` — the manifest **last**, as the commit point — and
    the staging directory is swept either way.  A crash while staging
    leaves the previous files untouched; a crash mid-publish can
    interleave old and new *complete* files, a torn state a
    ``verify=True`` load rejects by content hash.  A truncated array
    can never be published, and writing into a fresh directory is fully
    atomic: the artifact exists only once its manifest does.
    """
    staging = _staging_dir(out_dir)
    try:
        for fname, array in arrays.items():
            np.save(staging / fname, array)
        (staging / _MANIFEST).write_text(manifest.to_json() + "\n")
        for fname in arrays:
            os.replace(staging / fname, out_dir / fname)
        os.replace(staging / _MANIFEST, out_dir / _MANIFEST)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class SnapshotManifest:
    """Identity card of one exported snapshot.

    ``version`` is a content hash over the embedding tables, the seen-set
    arrays and the identifying fields, so two snapshots with the same
    version are byte-identical for serving purposes — result caches key
    on it (see :class:`repro.serve.service.RecommendationService`).
    """

    schema: str
    version: str
    model: str
    model_class: str
    dim: int
    num_users: int
    num_items: int
    dataset: str
    scoring: str
    created_unix: float
    extra: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to the ``manifest.json`` on-disk representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SnapshotManifest":
        """Parse ``manifest.json`` text, rejecting unknown fields."""
        payload = json.loads(text)
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"manifest has unknown fields {sorted(unknown)}; "
                             f"written by a newer schema?")
        return cls(**payload)


def _content_version(users: np.ndarray, items: np.ndarray,
                     seen_indptr: np.ndarray, seen_items: np.ndarray,
                     identity: tuple) -> str:
    """Short content hash of everything that affects serving results."""
    digest = hashlib.sha256()
    digest.update(repr(identity).encode())
    for arr in (users, items, seen_indptr, seen_items):
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


class EmbeddingSnapshot:
    """A loaded snapshot: manifest + (optionally memory-mapped) arrays.

    Parameters
    ----------
    manifest:
        Parsed :class:`SnapshotManifest`.
    users, items:
        ``(num_users, dim)`` / ``(num_items, dim)`` float64 tables with
        propagation already applied.
    seen_indptr, seen_items:
        CSR layout of each user's training interactions
        (``seen_items[seen_indptr[u]:seen_indptr[u + 1]]``).
    path:
        Directory the snapshot was loaded from, if any.
    """

    def __init__(self, manifest: SnapshotManifest, users: np.ndarray,
                 items: np.ndarray, seen_indptr: np.ndarray,
                 seen_items: np.ndarray, path: pathlib.Path | None = None):
        if users.shape != (manifest.num_users, manifest.dim):
            raise ValueError(f"user table shape {users.shape} does not match "
                             f"manifest ({manifest.num_users}, {manifest.dim})")
        if items.shape != (manifest.num_items, manifest.dim):
            raise ValueError(f"item table shape {items.shape} does not match "
                             f"manifest ({manifest.num_items}, {manifest.dim})")
        if len(seen_indptr) != manifest.num_users + 1:
            raise ValueError("seen_indptr length does not match num_users")
        # CSR consistency now, not an opaque IndexError at request time
        # (or a silent wrong-row mask for negative ids).
        if seen_indptr[0] != 0 or seen_indptr[-1] != len(seen_items):
            raise ValueError("seen_indptr does not span seen_items "
                             "(truncated snapshot?)")
        if not np.all(np.diff(seen_indptr) >= 0):
            raise ValueError("seen_indptr is not monotone (corrupted "
                             "snapshot?)")
        if len(seen_items) and (seen_items.min() < 0
                                or seen_items.max() >= manifest.num_items):
            raise ValueError("seen_items contains out-of-range item ids")
        self.manifest = manifest
        self.users = users
        self.items = items
        self.seen_indptr = seen_indptr
        self.seen_items = seen_items
        self.path = path

    @property
    def version(self) -> str:
        """Content-hash identity (cache key for downstream services)."""
        return self.manifest.version

    @property
    def scoring(self) -> str:
        """Test-time scoring function: ``inner``/``cosine``/``euclidean``."""
        return self.manifest.scoring

    def seen(self, user_id: int) -> np.ndarray:
        """Training items of one user (the filter-seen candidate mask)."""
        return np.asarray(
            self.seen_items[self.seen_indptr[user_id]:
                            self.seen_indptr[user_id + 1]])

    def recompute_version(self) -> str:
        """Re-hash the loaded arrays (integrity check against the manifest)."""
        m = self.manifest
        return _content_version(
            np.asarray(self.users), np.asarray(self.items),
            np.asarray(self.seen_indptr), np.asarray(self.seen_items),
            (m.schema, m.model_class, m.dim, m.num_users, m.num_items,
             m.scoring))

    def __repr__(self) -> str:
        m = self.manifest
        return (f"EmbeddingSnapshot(model={m.model!r}, version={m.version!r}, "
                f"users={m.num_users}, items={m.num_items}, dim={m.dim}, "
                f"scoring={m.scoring!r})")


def _frozen_tables(model: Recommender) -> tuple[np.ndarray, np.ndarray]:
    """Final (user, item) float64 tables with propagation applied.

    Runs ``model.embeddings()`` once in eval mode (dropout and SSL
    perturbations off, exactly like ``predict_scores``).
    """
    was_training = model.training
    model.eval()
    try:
        users, items = model.embeddings()
    finally:
        if was_training:
            model.train()
    return (np.ascontiguousarray(users, dtype=np.float64),
            np.ascontiguousarray(items, dtype=np.float64))


def _write_arrays(out_dir: pathlib.Path, manifest: SnapshotManifest,
                  users: np.ndarray, items: np.ndarray,
                  seen_indptr: np.ndarray, seen_items: np.ndarray) -> None:
    """Persist the four snapshot arrays plus the manifest, crash-safely.

    The single write path shared by :func:`export_snapshot` and the
    delta-replay exporter (:func:`repro.serve.delta.export_state`), so
    "replayed chain == fresh export" can be checked byte for byte.
    Published through :func:`_publish_files`; an orphaned staging
    directory left by a killed export is swept by the next one.
    """
    _publish_files(out_dir,
                   {_FILES["users"]: users, _FILES["items"]: items,
                    _FILES["seen_indptr"]: seen_indptr,
                    _FILES["seen_items"]: seen_items}, manifest)


def export_snapshot(model: Recommender, dataset: InteractionDataset,
                    out_dir, *, model_name: str | None = None,
                    extra: dict | None = None,
                    created_unix: float | None = None) -> EmbeddingSnapshot:
    """Freeze a trained model into a serving snapshot directory.

    Runs ``model.propagate()`` once in eval mode (so dropout and
    SSL perturbations are off, exactly like
    :meth:`~repro.models.base.Recommender.predict_scores`), persists the
    final tables plus the dataset's train-interaction CSR, and writes a
    versioned manifest.  Returns the loaded in-memory snapshot.

    Parameters
    ----------
    model:
        Any trained registry backbone.
    dataset:
        The training dataset — provides the seen-item sets used for
        ``filter_seen`` at request time.
    out_dir:
        Target directory (created if missing; files are overwritten).
    model_name:
        Registry name to record (defaults to the class name lowercased).
    extra:
        Free-form JSON-serializable metadata merged into the manifest.
    """
    if (model.num_users, model.num_items) != (dataset.num_users,
                                              dataset.num_items):
        raise ValueError(
            f"model is sized ({model.num_users}, {model.num_items}) but "
            f"dataset is ({dataset.num_users}, {dataset.num_items})")
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A prior sharded export into this directory must not survive: its
    # shards.json would make `recommend` route to the stale sharded
    # model instead of this fresh export.
    _remove_stale_layout(out_dir, for_sharded=False)

    users, items = _frozen_tables(model)
    seen_indptr, seen_items = seen_items_csr(dataset.train_items_by_user)

    name = model_name or type(model).__name__.lower()
    identity = (SNAPSHOT_SCHEMA, type(model).__name__, model.dim,
                model.num_users, model.num_items, model.test_scoring)
    manifest = SnapshotManifest(
        schema=SNAPSHOT_SCHEMA,
        version=_content_version(users, items, seen_indptr, seen_items,
                                 identity),
        model=name,
        model_class=type(model).__name__,
        dim=model.dim,
        num_users=model.num_users,
        num_items=model.num_items,
        dataset=dataset.name,
        scoring=model.test_scoring,
        created_unix=time.time() if created_unix is None else created_unix,
        extra=dict(extra or {}))

    _write_arrays(out_dir, manifest, users, items, seen_indptr, seen_items)
    return EmbeddingSnapshot(manifest, users, items, seen_indptr, seen_items,
                             path=out_dir)


def load_snapshot(path, *, mmap: bool = True,
                  verify: bool = False) -> EmbeddingSnapshot:
    """Open a snapshot directory written by :func:`export_snapshot`.

    Parameters
    ----------
    path:
        Snapshot directory.
    mmap:
        Memory-map the embedding tables read-only (the default) so many
        serving processes share one page cache; pass ``False`` to load
        plain in-memory copies.
    verify:
        Re-hash the arrays and fail loudly if the content does not match
        the manifest's ``version`` (detects truncated or edited files).
    """
    path = pathlib.Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no snapshot manifest at {manifest_path}")
    manifest = SnapshotManifest.from_json(manifest_path.read_text())
    if manifest.schema != SNAPSHOT_SCHEMA:
        raise ValueError(f"snapshot schema {manifest.schema!r} is not "
                         f"{SNAPSHOT_SCHEMA!r}")
    mmap_mode = "r" if mmap else None
    arrays = {key: np.load(path / fname, mmap_mode=mmap_mode,
                           allow_pickle=False)
              for key, fname in _FILES.items()}
    snapshot = EmbeddingSnapshot(manifest, arrays["users"], arrays["items"],
                                 arrays["seen_indptr"], arrays["seen_items"],
                                 path=path)
    if verify and snapshot.recompute_version() != manifest.version:
        raise ValueError(
            f"snapshot content hash does not match manifest version "
            f"{manifest.version!r}; files were modified after export")
    return snapshot


# ----------------------------------------------------------------------
# Sharded snapshots
# ----------------------------------------------------------------------
def partition_ids(n: int, num_shards: int,
                  strategy: str = "contiguous") -> list[np.ndarray]:
    """Split ``arange(n)`` into ``num_shards`` ascending id arrays.

    ``contiguous`` assigns ranges (``np.array_split`` boundaries);
    ``hash`` assigns by residue (shard ``s`` owns ``id % num_shards ==
    s``).  Every shard's array is sorted ascending and the union covers
    ``[0, n)`` exactly — the invariant the scatter-gather router's
    global/local id mapping relies on.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_shards > n:
        raise ValueError(f"cannot cut {n} ids into {num_shards} non-empty "
                         f"shards")
    if strategy == "contiguous":
        return np.array_split(np.arange(n, dtype=np.int64), num_shards)
    if strategy == "hash":
        return [np.arange(s, n, num_shards, dtype=np.int64)
                for s in range(num_shards)]
    raise ValueError(f"unknown partition strategy {strategy!r}; "
                     f"available: {PARTITION_STRATEGIES}")


@dataclasses.dataclass(frozen=True)
class ShardManifest:
    """Identity card of one shard directory inside a sharded snapshot.

    ``version`` is a content hash over the shard's arrays plus its
    identifying fields; the top-level :class:`ShardedManifest` hashes
    these child versions, so tampering with any shard invalidates the
    whole snapshot under ``verify=True``.
    """

    schema: str
    version: str
    kind: str
    index: int
    num_shards: int
    strategy: str
    count: int
    dim: int
    scoring: str
    num_users: int
    num_items: int

    def to_json(self) -> str:
        """Serialize to the shard's ``manifest.json`` representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        """Parse a shard ``manifest.json``, rejecting unknown fields."""
        payload = json.loads(text)
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"shard manifest has unknown fields "
                             f"{sorted(unknown)}; written by a newer schema?")
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class ShardedManifest:
    """Top-level ``shards.json`` of a sharded snapshot directory.

    ``user_shards`` / ``item_shards`` list ``{"path", "version",
    "count"}`` entries in shard order; ``version`` is a content hash
    over the child shard versions and the identity fields, so it plays
    the same cache-key role as an unsharded snapshot's version.
    """

    schema: str
    version: str
    model: str
    model_class: str
    dim: int
    num_users: int
    num_items: int
    dataset: str
    scoring: str
    partition_by: str
    strategy: str
    num_user_shards: int
    num_item_shards: int
    user_shards: list
    item_shards: list
    created_unix: float
    extra: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to the on-disk ``shards.json`` representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardedManifest":
        """Parse ``shards.json`` text, rejecting unknown fields."""
        payload = json.loads(text)
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"shards.json has unknown fields "
                             f"{sorted(unknown)}; written by a newer schema?")
        return cls(**payload)


#: shard subdirectory naming used by the sharded exporter/loader
_SHARD_DIR = re.compile(r"^(user|item)-shard-\d{2}$")


def _remove_stale_layout(out_dir: pathlib.Path, *,
                         for_sharded: bool) -> None:
    """Drop stale artifacts before re-exporting into a directory.

    Exports overwrite in place, but the directory must never end up
    satisfying both loaders at once — an unsharded export leaving a
    previous ``shards.json`` behind (or vice versa) would make
    ``recommend`` silently serve the stale model.  Old shard
    subdirectories always go (a re-export with a smaller shard count
    must not leave orphans); they are only removed when they match the
    exporter's naming pattern *and* carry a shard manifest, so
    unrelated user files are never touched.  Orphaned staging
    directories from a crashed export are swept here too (they carry
    the exporter's own prefix, so they cannot be user files).
    """
    (out_dir / _SHARDS_MANIFEST).unlink(missing_ok=True)
    for child in out_dir.iterdir():
        if child.is_dir() and child.name.startswith(_STAGING_PREFIX):
            shutil.rmtree(child, ignore_errors=True)
        elif (child.is_dir() and _SHARD_DIR.match(child.name)
                and (child / _MANIFEST).is_file()):
            shutil.rmtree(child)
    if for_sharded:
        (out_dir / _MANIFEST).unlink(missing_ok=True)
        for fname in _FILES.values():
            (out_dir / fname).unlink(missing_ok=True)


def _sharded_version(identity: tuple, shard_versions: list[str]) -> str:
    """Top-level content hash from the child shard versions."""
    digest = hashlib.sha256()
    digest.update(repr(identity).encode())
    for version in shard_versions:
        digest.update(version.encode())
    return digest.hexdigest()[:16]


def _csr_rows(indptr: np.ndarray, items: np.ndarray,
              ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the CSR rows ``ids`` of a global ``(indptr, items)`` layout.

    Returns a rebased ``(indptr, items)`` pair — byte-identical to
    ``seen_items_csr([items_by_user[u] for u in ids])`` over the same
    per-user lists, but driven by the flat CSR an
    :class:`~repro.data.source.InteractionSource` provides (``items``
    may be a memmap; only the gathered segments are read).
    """
    ids = np.asarray(ids, dtype=np.int64)
    counts = indptr[ids + 1] - indptr[ids]
    out_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    total = int(out_indptr[-1])
    if total == 0:
        return out_indptr, np.empty(0, dtype=np.int64)
    flat = (np.repeat(indptr[ids] - out_indptr[:-1], counts)
            + np.arange(total, dtype=np.int64))
    return out_indptr, np.asarray(items[flat], dtype=np.int64)


def _write_user_shard(out_dir: pathlib.Path, index: int, ids: np.ndarray,
                      users: np.ndarray, seen_csr: tuple,
                      base: dict) -> dict:
    """Persist one user shard directory; returns its shards.json entry.

    Staged and published with one directory rename: the shard either
    exists complete or not at all (the stale previous shard was removed
    by ``_remove_stale_layout`` before any writing began).
    """
    shard_dir = out_dir / f"user-shard-{index:02d}"
    rows = np.ascontiguousarray(users[ids])
    indptr, seen = _csr_rows(seen_csr[0], seen_csr[1], ids)
    version = _content_version(
        rows, ids, indptr, seen,
        (SHARD_SCHEMA, "user", index, base["num_shards"], base["strategy"]))
    manifest = ShardManifest(schema=SHARD_SCHEMA, version=version,
                             kind="user", index=index, count=len(ids),
                             **base)
    staging = _staging_dir(out_dir)
    try:
        np.save(staging / "user_embeddings.npy", rows)
        np.save(staging / "user_ids.npy", ids)
        np.save(staging / "seen_indptr.npy", indptr)
        np.save(staging / "seen_items.npy", seen)
        (staging / _MANIFEST).write_text(manifest.to_json() + "\n")
        if shard_dir.exists():
            shutil.rmtree(shard_dir)
        os.replace(staging, shard_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {"path": shard_dir.name, "version": version, "count": len(ids)}


def _write_item_shard(out_dir: pathlib.Path, index: int, ids: np.ndarray,
                      items: np.ndarray, base: dict) -> dict:
    """Persist one item shard directory; returns its shards.json entry.

    Staged and published with one directory rename, exactly like
    :func:`_write_user_shard`.
    """
    shard_dir = out_dir / f"item-shard-{index:02d}"
    rows = np.ascontiguousarray(items[ids])
    version = _content_version(
        rows, ids, np.empty(0, np.int64), np.empty(0, np.int64),
        (SHARD_SCHEMA, "item", index, base["num_shards"], base["strategy"]))
    manifest = ShardManifest(schema=SHARD_SCHEMA, version=version,
                             kind="item", index=index, count=len(ids),
                             **base)
    staging = _staging_dir(out_dir)
    try:
        np.save(staging / "item_embeddings.npy", rows)
        np.save(staging / "item_ids.npy", ids)
        (staging / _MANIFEST).write_text(manifest.to_json() + "\n")
        if shard_dir.exists():
            shutil.rmtree(shard_dir)
        os.replace(staging, shard_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {"path": shard_dir.name, "version": version, "count": len(ids)}


def _export_sharded_tables(out_dir, users, items, seen_csr, *,
                           model_name: str, model_class: str, dim: int,
                           num_users: int, num_items: int,
                           dataset_name: str, scoring: str, shards: int,
                           partition_by: str, strategy: str,
                           extra: dict | None,
                           created_unix: float | None):
    """Shared sharded-export core: tables + seen CSR → shard directories.

    Both the model-level :func:`export_sharded_snapshot` and the
    out-of-core :func:`export_sharded_source_snapshot` funnel through
    here, so identical inputs produce byte-identical shard files and
    manifests regardless of which front door was used (pin
    ``created_unix`` to make the manifests comparable too).
    """
    if partition_by not in ("user", "item", "both"):
        raise ValueError(f"partition_by must be user/item/both, "
                         f"got {partition_by!r}")
    num_user_shards = shards if partition_by in ("user", "both") else 1
    num_item_shards = shards if partition_by in ("item", "both") else 1

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale_layout(out_dir, for_sharded=True)

    base = {"dim": dim, "scoring": scoring,
            "num_users": num_users, "num_items": num_items,
            "strategy": strategy}
    user_entries = [
        _write_user_shard(out_dir, i, ids, users, seen_csr,
                          {**base, "num_shards": num_user_shards})
        for i, ids in enumerate(partition_ids(num_users,
                                              num_user_shards, strategy))]
    item_entries = [
        _write_item_shard(out_dir, i, ids, items,
                          {**base, "num_shards": num_item_shards})
        for i, ids in enumerate(partition_ids(num_items,
                                              num_item_shards, strategy))]

    identity = (SHARDED_SCHEMA, model_class, dim,
                num_users, num_items, scoring,
                partition_by, strategy, num_user_shards, num_item_shards)
    manifest = ShardedManifest(
        schema=SHARDED_SCHEMA,
        version=_sharded_version(
            identity, [e["version"] for e in user_entries + item_entries]),
        model=model_name,
        model_class=model_class,
        dim=dim,
        num_users=num_users,
        num_items=num_items,
        dataset=dataset_name,
        scoring=scoring,
        partition_by=partition_by,
        strategy=strategy,
        num_user_shards=num_user_shards,
        num_item_shards=num_item_shards,
        user_shards=user_entries,
        item_shards=item_entries,
        created_unix=time.time() if created_unix is None else created_unix,
        extra=dict(extra or {}))
    # shards.json is the commit point: until this rename lands, the
    # directory does not parse as a sharded snapshot at all.
    _atomic_write_text(out_dir / _SHARDS_MANIFEST, manifest.to_json() + "\n")

    from repro.serve.shard import load_sharded_snapshot
    return load_sharded_snapshot(out_dir)


def export_sharded_snapshot(model: Recommender, dataset: InteractionDataset,
                            out_dir, *, shards: int,
                            partition_by: str = "both",
                            strategy: str = "contiguous",
                            model_name: str | None = None,
                            extra: dict | None = None,
                            created_unix: float | None = None):
    """Freeze a trained model into a horizontally partitioned snapshot.

    Writes ``shards`` user-shard directories and/or ``shards``
    item-shard directories (per ``partition_by``) under ``out_dir``,
    plus a content-hashed top-level ``shards.json``.  The embedding
    values, seen-item sets and manifest identity are exactly those an
    unsharded :func:`export_snapshot` of the same model would produce —
    only the placement differs — which is what lets the scatter-gather
    router reproduce the unsharded rankings bit for bit.

    Parameters
    ----------
    model, dataset, model_name, extra:
        As in :func:`export_snapshot`.
    out_dir:
        Target directory (created if missing; files are overwritten).
    shards:
        Number of partitions along each sharded axis.
    partition_by:
        ``"user"`` shards only the user side, ``"item"`` only the item
        side, ``"both"`` (default) shards both; the un-sharded side is
        stored as a single shard.
    strategy:
        ``"contiguous"`` or ``"hash"`` (see :func:`partition_ids`).
    created_unix:
        Export timestamp recorded in ``shards.json`` (defaults to now);
        pin it when byte-comparing two exports.

    Returns the loaded
    :class:`~repro.serve.shard.ShardedSnapshot`.
    """
    if (model.num_users, model.num_items) != (dataset.num_users,
                                              dataset.num_items):
        raise ValueError(
            f"model is sized ({model.num_users}, {model.num_items}) but "
            f"dataset is ({dataset.num_users}, {dataset.num_items})")
    users, items = _frozen_tables(model)
    seen_csr = seen_items_csr(dataset.train_items_by_user)
    return _export_sharded_tables(
        out_dir, users, items, seen_csr,
        model_name=model_name or type(model).__name__.lower(),
        model_class=type(model).__name__, dim=model.dim,
        num_users=model.num_users, num_items=model.num_items,
        dataset_name=dataset.name, scoring=model.test_scoring,
        shards=shards, partition_by=partition_by, strategy=strategy,
        extra=extra, created_unix=created_unix)


def export_sharded_source_snapshot(users, items, source, out_dir, *,
                                   shards: int,
                                   partition_by: str = "both",
                                   strategy: str = "contiguous",
                                   model_name: str = "mf",
                                   model_class: str = "MF",
                                   scoring: str = "cosine",
                                   extra: dict | None = None,
                                   created_unix: float | None = None):
    """Sharded export straight from embedding tables + interaction source.

    The out-of-core path: ``users`` / ``items`` are typically read-only
    memmaps of on-disk tables (:func:`repro.train.outofcore.open_mmap_mf`
    at ``mode="r"`` exposes them as ``model.*_embedding.weight.data``)
    and ``source`` an mmap-backed
    :class:`~repro.data.source.ShardedInteractionSource` providing the
    seen-item CSR — no dense intermediate table or per-user Python list
    is ever materialized; each shard reads only its own row block.
    Given equal table bytes and interactions, the output is
    byte-identical to :func:`export_sharded_snapshot` of the equivalent
    in-memory model/dataset (``created_unix`` pinned), because both
    funnel through the same write core.
    """
    users = np.asarray(users)
    items = np.asarray(items)
    if users.ndim != 2 or items.ndim != 2 or users.shape[1] != items.shape[1]:
        raise ValueError(f"malformed tables {users.shape} / {items.shape}")
    if users.shape[0] != source.num_users \
            or items.shape[0] != source.num_items:
        raise ValueError(
            f"tables are sized ({users.shape[0]}, {items.shape[0]}) but "
            f"source is ({source.num_users}, {source.num_items})")
    return _export_sharded_tables(
        out_dir, users, items, source.train_csr(),
        model_name=model_name, model_class=model_class,
        dim=int(users.shape[1]), num_users=source.num_users,
        num_items=source.num_items, dataset_name=source.name,
        scoring=scoring, shards=shards, partition_by=partition_by,
        strategy=strategy, extra=extra, created_unix=created_unix)


def is_sharded_snapshot(path) -> bool:
    """True if ``path`` holds a sharded snapshot (has a ``shards.json``)."""
    return (pathlib.Path(path) / _SHARDS_MANIFEST).is_file()


def quarantine_snapshot(path) -> pathlib.Path:
    """Move a damaged snapshot directory aside; returns the new path.

    Renames ``path`` to ``<path>.quarantined`` (suffixing ``-2``,
    ``-3``, … if earlier quarantines exist), so a refresh retry loop
    stops re-reading the same corrupt files while an operator can still
    inspect them.  The rename is a single ``os.replace``-free
    ``os.rename`` into a fresh name — never over existing data.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"nothing to quarantine at {path}")
    target = path.with_name(path.name + ".quarantined")
    suffix = 2
    while target.exists():
        target = path.with_name(f"{path.name}.quarantined-{suffix}")
        suffix += 1
    os.rename(path, target)
    return target
