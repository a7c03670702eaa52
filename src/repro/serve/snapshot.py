"""Frozen embedding snapshots: the training → serving hand-off format.

A *snapshot* is a directory holding everything the online stack needs to
answer "what do we recommend to user ``u``?" without ever touching the
training graph again.  There is one format, a **shard set**: the
serving state partitioned horizontally into

* *user shards* ``user-shard-NN/`` — the embedding rows and training
  interactions (seen-item CSR, consumed by
  :func:`repro.eval.masking.mask_seen_items` to filter already-seen
  items) of a subset of users;
* *item shards* ``item-shard-NN/`` — the embedding rows of a subset of
  the catalogue;
* ``shards.json`` — a versioned :class:`ShardedManifest` recording the
  model, sizes, scoring function, partitioning and a content hash over
  the shards' own content-hashed manifests, so a service can detect
  stale caches and refuse mismatched artifacts.

Embedding tables are plain ``.npy`` files, memory-mapped read-only by
any number of serving processes, and hold the backbone's **final**
tables with graph propagation already applied, so serving cost is one
dense gather + matmul per request batch regardless of backbone depth.

The *unsharded* snapshot is the 1×1 set (one user shard, one item
shard), which :func:`export_snapshot` writes.
:func:`export_sharded_snapshot` writes any other shard count; users and
items partition independently
(``partition_by`` ∈ ``user``/``item``/``both``) with either
``contiguous`` range or ``hash`` (``id % n``) placement.  Every export
goes through one write core and one publish routine (:func:`_publish`),
which keeps a loadable snapshot in place while it runs.  Every shard
set, 1×1 included, loads as one type,
:class:`~repro.serve.shard.ShardedSnapshot`
(:func:`~repro.serve.shard.load_snapshot`); the scatter-gather reader
lives in :mod:`repro.serve.shard` / :mod:`repro.serve.router`, and the
partitioning and merge contract is documented in ``docs/sharding.md``.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import errno
import functools
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
from repro.models.base import Recommender

__all__ = ["SHARD_SCHEMA", "SHARDED_SCHEMA", "ShardManifest",
           "ShardedManifest", "SnapshotIntegrityError", "export_snapshot",
           "quarantine_snapshot", "partition_ids", "export_sharded_snapshot",
           "export_sharded_source_snapshot"]

#: Schema of one shard directory's ``manifest.json``.
SHARD_SCHEMA = "bsl-serve-shard/v1"

#: Schema of a snapshot's top-level ``shards.json``.
SHARDED_SCHEMA = "bsl-serve-sharded/v1"

#: Partitioning strategies accepted by :func:`partition_ids`.
PARTITION_STRATEGIES = ("contiguous", "hash")

_SHARDS_MANIFEST = "shards.json"
_MANIFEST = "manifest.json"

#: shard subdirectory naming used by the exporter and the stale sweep
_SHARD_DIR = re.compile(r"^(user|item)-shard-\d{2}$")

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


def _sweep_staging(out_dir: pathlib.Path) -> None:
    """Remove orphaned staging directories left by a killed publish.

    They carry the exporter's own prefix, so they cannot be user files;
    after an exchange-based publish an orphan may hold the *previous*
    files, so it is garbage either way.
    """
    for child in out_dir.glob(_STAGING_PREFIX + "*"):
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)


#: ``renameat2`` arguments: relative paths, and swap the two names
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
#: errnos after which :func:`_swap_in` falls back to ``os.replace``: no
#: live file to swap with, or no exchange on this platform/filesystem
_NO_EXCHANGE = (errno.ENOENT, errno.EINVAL, errno.ENOSYS)


@functools.cache
def _renameat2():
    """libc's ``renameat2``, or ``None`` where the platform lacks it."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
                   ctypes.c_char_p, ctypes.c_uint]
    fn.restype = ctypes.c_int
    return fn


def _swap_in(src: pathlib.Path, dst: pathlib.Path) -> None:
    """Publish ``src`` (a file or a directory) under the name ``dst``.

    The staged entry is *exchanged* with the live one, so ``dst`` never
    stops existing and the previous entry (whose inodes any mmap reader
    keeps) lands at ``src``, to be deleted with the staging directory.
    A plain rename over an existing file would do the same job, but on
    ext4 (``auto_da_alloc``, the default) it forces writeback of the new
    file's data before returning — most of a re-export's wall time.
    Falls back to ``os.replace`` when there is nothing at ``dst`` yet or
    the platform or filesystem cannot exchange.  ``os.replace`` cannot
    move a directory onto a non-empty one, so a live directory is
    instead updated file by file, its ``manifest.json`` last: every
    name stays published throughout, and a reader can at worst pair
    old and new complete files, which a ``verify=True`` load rejects.
    """
    fn = _renameat2()
    if fn is None:
        err = errno.ENOSYS
    elif fn(_AT_FDCWD, os.fsencode(src), _AT_FDCWD, os.fsencode(dst),
            _RENAME_EXCHANGE) == 0:
        return
    else:
        err = ctypes.get_errno()
    if err not in _NO_EXCHANGE:
        raise OSError(err, os.strerror(err), str(src), None, str(dst))
    moves = [(src, dst)]
    if src.is_dir() and dst.is_dir():
        moves = [(child, dst / child.name) for child in sorted(
            src.iterdir(), key=lambda p: (p.name == _MANIFEST, p.name))]
    for old, new in moves:
        os.replace(old, new)


@contextlib.contextmanager
def _publish(out_dir: pathlib.Path, commit: str):
    """The one crash-safe, live-safe write sequence of every artifact
    directory (snapshot shard sets, ANN indexes).

    Yields a fresh staging directory inside ``out_dir`` (same
    filesystem, so every :func:`_swap_in` out of it is atomic) for the
    caller to fill with the whole new tree: files, and directories such
    as shards.  When the block exits normally each top-level staged
    entry is swapped in, ``commit`` — the manifest — **last**, as the
    commit point.  Nothing published is deleted, so a reader always
    finds a complete artifact; entries the new manifest no longer names
    are the caller's to drop once the block has exited (the snapshot
    exporter's stale shards).  The staging directory, now holding the
    replaced entries, is removed either way, and orphaned staging
    directories of a killed publish are swept first.

    A crash while staging leaves the previous artifact untouched; a
    crash mid-publish can interleave old and new *complete* entries, a
    torn state a ``verify=True`` load rejects by content hash.  A
    truncated array can never be published, and writing into a fresh
    directory is fully atomic: the artifact exists only once its
    manifest does.  Nothing is ``fsync``-ed: the guarantee is against a
    process crash, not power loss.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    _sweep_staging(out_dir)
    staging = pathlib.Path(tempfile.mkdtemp(prefix=_STAGING_PREFIX,
                                            dir=out_dir))
    try:
        yield staging
        for name in sorted(os.listdir(staging),
                           key=lambda name: (name == commit, name)):
            _swap_in(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


class _ManifestCodec:
    """The ``to_json`` / ``from_json`` pair of every manifest dataclass.

    ``from_json`` rejects unknown fields; ``_FILE`` names the file in
    that error.
    """

    _FILE = "manifest.json"

    def to_json(self) -> str:
        """Serialize to the on-disk representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Parse the on-disk text, rejecting unknown fields."""
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload: dict):
        """Build from parsed JSON, rejecting unknown fields."""
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"{cls._FILE} has unknown fields "
                             f"{sorted(unknown)}; written by a newer schema?")
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
        digest.update(memoryview(np.ascontiguousarray(arr)))
    return digest.hexdigest()[:16]


def _check_sizes(model: Recommender, dataset: InteractionDataset) -> None:
    """Refuse to export a model sized for another dataset."""
    if (model.num_users, model.num_items) != (dataset.num_users,
                                              dataset.num_items):
        raise ValueError(
            f"model is sized ({model.num_users}, {model.num_items}) but "
            f"dataset is ({dataset.num_users}, {dataset.num_items})")


def export_snapshot(model: Recommender, dataset: InteractionDataset,
                    out_dir, *, model_name: str | None = None,
                    extra: dict | None = None,
                    created_unix: float | None = None):
    """Freeze a trained model into an unsharded (1×1) snapshot directory.

    Runs ``model.propagate()`` once in eval mode (so dropout and
    SSL perturbations are off, exactly like
    :meth:`~repro.models.base.Recommender.scoring_tables`) and writes
    the final tables plus the dataset's train-interaction CSR as a
    shard set of one user shard and one item shard — the
    ``export_sharded_snapshot(..., shards=1)`` bytes.  Returns the
    :class:`~repro.serve.shard.ShardedSnapshot` over the shards as
    staged in memory: the tables are the model's own, and nothing is
    read back.

    Parameters
    ----------
    model:
        Any trained registry backbone.
    dataset:
        The training dataset — provides the seen-item sets used for
        ``filter_seen`` at request time.
    out_dir:
        Target directory (created if missing; a previous snapshot of
        any shard count is replaced).
    model_name:
        Registry name to record (defaults to the class name lowercased).
    extra:
        Free-form JSON-serializable metadata merged into the manifest.
    created_unix:
        Export timestamp recorded in ``shards.json`` (defaults to now);
        pin it when byte-comparing two exports.
    """
    _check_sizes(model, dataset)
    users, items = model.embeddings()
    return _export_sharded_tables(
        out_dir, users, items, dataset.train_csr(),
        **_model_identity(model, dataset, model_name), shards=1,
        partition_by="both", strategy="contiguous", extra=extra,
        created_unix=created_unix)


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
class ShardManifest(_ManifestCodec):
    """Identity card of one shard directory inside a snapshot.

    ``version`` is a content hash over the shard's arrays plus its
    identifying fields; the top-level :class:`ShardedManifest` hashes
    these child versions, so tampering with any shard invalidates the
    whole snapshot under ``verify=True``.
    """

    _FILE = "shard manifest"

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


@dataclasses.dataclass(frozen=True)
class ShardedManifest(_ManifestCodec):
    """Top-level ``shards.json`` of a snapshot directory.

    ``user_shards`` / ``item_shards`` list ``{"path", "version",
    "count"}`` entries in shard order; ``version`` is a content hash
    over the child shard versions and the identity fields — the
    snapshot's cache key.
    """

    _FILE = _SHARDS_MANIFEST

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


def _stage_shard(staging: pathlib.Path, kind: str, index: int,
                 ids: np.ndarray, table: np.ndarray, seen_csr: tuple | None,
                 base: dict):
    """Stage one ``{kind}-shard-NN`` directory.  Returns the shard over
    the in-memory arrays it wrote, at its published path: a
    :class:`~repro.serve.shard.UserShard` with its seen-item CSR, or an
    :class:`~repro.serve.shard.ItemShard`."""
    from repro.serve.shard import ItemShard, UserShard
    # ``ids`` ascend, so a contiguous run is a slice: a view, not a copy
    # (of a float64 table; a float32 one is cast exactly, since every
    # snapshot stores float64 rows)
    run = len(ids) == ids[-1] - ids[0] + 1
    rows = np.ascontiguousarray(table[ids[0]:ids[-1] + 1] if run
                                else table[ids], dtype=np.float64)
    files = {f"{kind}_embeddings.npy": rows, f"{kind}_ids.npy": ids}
    if seen_csr is None:
        indptr = seen = np.empty(0, np.int64)
    else:
        indptr, seen = _csr_rows(seen_csr[0], seen_csr[1], ids)
        files.update({"seen_indptr.npy": indptr, "seen_items.npy": seen})
    version = _content_version(
        rows, ids, indptr, seen,
        (SHARD_SCHEMA, kind, index, base["num_shards"], base["strategy"]))
    manifest = ShardManifest(schema=SHARD_SCHEMA, version=version, kind=kind,
                             index=index, count=len(ids), **base)
    shard_dir = staging / f"{kind}-shard-{index:02d}"
    shard_dir.mkdir()
    for fname, array in files.items():
        np.save(shard_dir / fname, array)
    (shard_dir / _MANIFEST).write_text(manifest.to_json() + "\n")
    path = staging.parent / shard_dir.name
    if seen_csr is None:
        return ItemShard(manifest, ids, rows, path=path)
    return UserShard(manifest, ids, rows, indptr, seen, path=path)


def _entry(shard) -> dict:
    """The ``shards.json`` entry naming one staged shard."""
    return {"path": shard.path.name, "version": shard.manifest.version,
            "count": len(shard)}


def _model_identity(model: Recommender, dataset: InteractionDataset,
                    model_name: str | None) -> dict:
    """The manifest identity fields of a model-level export."""
    return {"model_name": model_name or type(model).__name__.lower(),
            "model_class": type(model).__name__, "dim": model.dim,
            "num_users": model.num_users, "num_items": model.num_items,
            "dataset_name": dataset.name, "scoring": model.test_scoring}


def _export_sharded_tables(out_dir, users, items, seen_csr, *,
                           model_name: str, model_class: str, dim: int,
                           num_users: int, num_items: int,
                           dataset_name: str, scoring: str, shards: int,
                           partition_by: str, strategy: str,
                           extra: dict | None,
                           created_unix: float | None):
    """The one export core: tables + seen CSR → a published shard set.

    Every front door (:func:`export_snapshot`,
    :func:`export_sharded_snapshot`, the out-of-core
    :func:`export_sharded_source_snapshot`) funnels through here, so
    identical inputs produce byte-identical shard files and manifests
    regardless of which one was used (pin ``created_unix`` to make the
    manifests comparable too).  Returns the written set as a
    :class:`~repro.serve.shard.ShardedSnapshot` over the staged arrays
    (table slices are views where a shard's ids are contiguous).
    """
    from repro.serve.shard import ShardedSnapshot
    if partition_by not in ("user", "item", "both"):
        raise ValueError(f"partition_by must be user/item/both, "
                         f"got {partition_by!r}")
    num_user_shards = shards if partition_by in ("user", "both") else 1
    num_item_shards = shards if partition_by in ("item", "both") else 1
    base = {"dim": dim, "scoring": scoring,
            "num_users": num_users, "num_items": num_items,
            "strategy": strategy}
    out_dir = pathlib.Path(out_dir)
    with _publish(out_dir, _SHARDS_MANIFEST) as staging:
        user_shards = [
            _stage_shard(staging, "user", i, ids, users, seen_csr,
                         {**base, "num_shards": num_user_shards})
            for i, ids in enumerate(partition_ids(num_users,
                                                  num_user_shards, strategy))]
        item_shards = [
            _stage_shard(staging, "item", i, ids, items, None,
                         {**base, "num_shards": num_item_shards})
            for i, ids in enumerate(partition_ids(num_items,
                                                  num_item_shards, strategy))]
        user_entries = [_entry(shard) for shard in user_shards]
        item_entries = [_entry(shard) for shard in item_shards]
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
        (staging / _SHARDS_MANIFEST).write_text(manifest.to_json() + "\n")
    # Only after the commit: drop the shard directories the new manifest
    # does not name (a re-export with fewer shards leaves no orphans).
    # Exporter naming plus a shard manifest, so user files are safe.
    named = {entry["path"] for entry in user_entries + item_entries}
    for child in out_dir.iterdir():
        if (child.name not in named and _SHARD_DIR.match(child.name)
                and (child / _MANIFEST).is_file()):
            shutil.rmtree(child)
    return ShardedSnapshot(manifest, user_shards, item_shards, path=out_dir)


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
    values and seen-item sets are exactly those of the unsharded
    :func:`export_snapshot` of the same model (which is ``shards=1``) —
    only the placement differs — which is what lets the scatter-gather
    router reproduce the unsharded rankings bit for bit.

    Parameters
    ----------
    model, dataset, model_name, extra, created_unix:
        As in :func:`export_snapshot`.
    out_dir:
        Target directory (created if missing; a previous snapshot of
        any shard count is replaced).
    shards:
        Number of partitions along each sharded axis.
    partition_by:
        ``"user"`` shards only the user side, ``"item"`` only the item
        side, ``"both"`` (default) shards both; the un-sharded side is
        stored as a single shard.
    strategy:
        ``"contiguous"`` or ``"hash"`` (see :func:`partition_ids`).

    Returns the set loaded back from ``out_dir`` (memory-mapped).
    """
    from repro.serve.shard import load_snapshot
    _check_sizes(model, dataset)
    users, items = model.embeddings()
    _export_sharded_tables(
        out_dir, users, items, dataset.train_csr(),
        **_model_identity(model, dataset, model_name), shards=shards,
        partition_by=partition_by, strategy=strategy, extra=extra,
        created_unix=created_unix)
    return load_snapshot(out_dir)


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
    Given equal table values (float32 or float64: the shards store
    float64) and interactions, the output is byte-identical to
    :func:`export_sharded_snapshot` of the equivalent in-memory
    model/dataset (``created_unix`` pinned), because both funnel
    through the same write core.  Returns the set loaded back
    from ``out_dir`` (memory-mapped).
    """
    from repro.serve.shard import load_snapshot
    users = np.asarray(users)
    items = np.asarray(items)
    if users.ndim != 2 or items.ndim != 2 or users.shape[1] != items.shape[1]:
        raise ValueError(f"malformed tables {users.shape} / {items.shape}")
    if users.shape[0] != source.num_users \
            or items.shape[0] != source.num_items:
        raise ValueError(
            f"tables are sized ({users.shape[0]}, {items.shape[0]}) but "
            f"source is ({source.num_users}, {source.num_items})")
    _export_sharded_tables(
        out_dir, users, items, source.train_csr(),
        model_name=model_name, model_class=model_class,
        dim=int(users.shape[1]), num_users=source.num_users,
        num_items=source.num_items, dataset_name=source.name,
        scoring=scoring, shards=shards, partition_by=partition_by,
        strategy=strategy, extra=extra, created_unix=created_unix)
    return load_snapshot(out_dir)


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
