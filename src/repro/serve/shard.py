"""Per-shard wrappers of a horizontally partitioned snapshot.

A sharded snapshot directory (written by
:func:`repro.serve.snapshot.export_sharded_snapshot`) splits the serving
state along two independent axes:

* :class:`UserShard` — the embedding rows and seen-item CSR of a subset
  of users.  Lookup-only: user sharding never changes any score bits,
  it just bounds per-process user-table and seen-set memory.
* :class:`ItemShard` — the embedding rows of a subset of the catalogue;
  :class:`ItemShardIndex` answers *partial* top-K queries over the
  shard's items, in **global** item ids, through the same scorers
  (:data:`repro.serve.index.SCORERS`) as the unsharded index.

:class:`ShardedSnapshot` loads the whole directory and owns the
global→(shard, local) routing tables.  The scatter-gather that merges
partial answers back into the unsharded ranking lives in
:mod:`repro.serve.router`.

A shard scores through the unsharded index's own scorer classes and
fixed-shape panel kernel (:func:`~repro.serve.index.panel_scores`),
ranks with :func:`~repro.eval.metrics.rank_items` and masks with the
shared ``-inf`` scatter from :mod:`repro.eval.masking`, so it cannot
drift from the single-process path in scoring, masking or tie order.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.eval.masking import mask_seen_items, seen_items_csr
from repro.eval.metrics import rank_items
from repro.serve.index import panel_scores
from repro.serve.snapshot import (SHARD_SCHEMA, SHARDED_SCHEMA,
                                  ShardManifest, ShardedManifest,
                                  _SHARDS_MANIFEST)

__all__ = ["UserShard", "ItemShard", "ItemShardIndex", "ShardedSnapshot",
           "load_sharded_snapshot"]

_MANIFEST = "manifest.json"


def _load_shard_manifest(shard_dir: pathlib.Path, kind: str) -> ShardManifest:
    """Read and schema-check one shard directory's manifest."""
    path = shard_dir / _MANIFEST
    if not path.is_file():
        raise FileNotFoundError(f"no shard manifest at {path}")
    manifest = ShardManifest.from_json(path.read_text())
    if manifest.schema != SHARD_SCHEMA:
        raise ValueError(f"shard schema {manifest.schema!r} is not "
                         f"{SHARD_SCHEMA!r}")
    if manifest.kind != kind:
        raise ValueError(f"expected a {kind} shard at {shard_dir}, "
                         f"found kind {manifest.kind!r}")
    return manifest


class UserShard:
    """One user partition: embedding rows + seen-item CSR, global ids.

    ``ids[p]`` is the global user id stored at local position ``p``
    (ascending); ``seen_items[seen_indptr[p]:seen_indptr[p+1]]`` are the
    **global** item ids of that user's training interactions.
    """

    def __init__(self, manifest: ShardManifest, ids: np.ndarray,
                 embeddings: np.ndarray, seen_indptr: np.ndarray,
                 seen_items: np.ndarray, path: pathlib.Path | None = None):
        if len(ids) != manifest.count:
            raise ValueError(f"user shard holds {len(ids)} ids but manifest "
                             f"says {manifest.count}")
        if embeddings.shape != (manifest.count, manifest.dim):
            raise ValueError(f"user shard table shape {embeddings.shape} "
                             f"does not match manifest "
                             f"({manifest.count}, {manifest.dim})")
        if len(seen_indptr) != manifest.count + 1:
            raise ValueError("user shard seen_indptr length mismatch")
        if seen_indptr[0] != 0 or seen_indptr[-1] != len(seen_items):
            raise ValueError("user shard seen_indptr does not span "
                             "seen_items (truncated shard?)")
        if not np.all(np.diff(seen_indptr) >= 0):
            raise ValueError("user shard seen_indptr is not monotone")
        if len(seen_items) and (seen_items.min() < 0
                                or seen_items.max() >= manifest.num_items):
            raise ValueError("user shard seen_items out of range")
        self.manifest = manifest
        self.ids = np.asarray(ids, dtype=np.int64)
        self.embeddings = embeddings
        self.seen_indptr = seen_indptr
        self.seen_items = seen_items
        self.path = path

    def __len__(self) -> int:
        return int(self.manifest.count)

    def seen(self, position: int) -> np.ndarray:
        """Global seen-item ids of the user at local ``position``."""
        return np.asarray(self.seen_items[self.seen_indptr[position]:
                                          self.seen_indptr[position + 1]])

    @classmethod
    def load(cls, shard_dir, *, mmap: bool = True) -> "UserShard":
        """Open one ``user-shard-NN`` directory."""
        shard_dir = pathlib.Path(shard_dir)
        manifest = _load_shard_manifest(shard_dir, "user")
        mode = "r" if mmap else None
        return cls(manifest,
                   np.load(shard_dir / "user_ids.npy", allow_pickle=False),
                   np.load(shard_dir / "user_embeddings.npy", mmap_mode=mode,
                           allow_pickle=False),
                   np.load(shard_dir / "seen_indptr.npy", allow_pickle=False),
                   np.load(shard_dir / "seen_items.npy", allow_pickle=False),
                   path=shard_dir)


class ItemShard:
    """One item partition: embedding rows for a slice of the catalogue.

    ``ids`` are the global item ids at each local row, ascending — the
    property that lets a shard-local canonical ranking (ties broken by
    *local* index) coincide with the global-id tie order after mapping
    back through ``ids``.
    """

    def __init__(self, manifest: ShardManifest, ids: np.ndarray,
                 embeddings: np.ndarray, path: pathlib.Path | None = None):
        if len(ids) != manifest.count:
            raise ValueError(f"item shard holds {len(ids)} ids but manifest "
                             f"says {manifest.count}")
        if embeddings.shape != (manifest.count, manifest.dim):
            raise ValueError(f"item shard table shape {embeddings.shape} "
                             f"does not match manifest "
                             f"({manifest.count}, {manifest.dim})")
        if len(ids) and np.any(np.diff(ids) <= 0):
            raise ValueError("item shard ids must be strictly ascending")
        if len(ids) and (ids[0] < 0 or ids[-1] >= manifest.num_items):
            raise ValueError("item shard ids out of range")
        self.manifest = manifest
        self.ids = np.asarray(ids, dtype=np.int64)
        self.embeddings = embeddings
        self.path = path

    def __len__(self) -> int:
        return int(self.manifest.count)

    def localize(self, global_ids: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Map global item ids onto this shard's local positions.

        Returns ``(member, local)``: a boolean mask of which inputs this
        shard owns, and their local row positions (same length as the
        ``True`` count, input order preserved).
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, global_ids)
        pos_clipped = np.minimum(pos, len(self.ids) - 1)
        member = self.ids[pos_clipped] == global_ids
        return member, pos_clipped[member]

    @classmethod
    def load(cls, shard_dir, *, mmap: bool = True) -> "ItemShard":
        """Open one ``item-shard-NN`` directory."""
        shard_dir = pathlib.Path(shard_dir)
        manifest = _load_shard_manifest(shard_dir, "item")
        mode = "r" if mmap else None
        return cls(manifest,
                   np.load(shard_dir / "item_ids.npy", allow_pickle=False),
                   np.load(shard_dir / "item_embeddings.npy", mmap_mode=mode,
                           allow_pickle=False),
                   path=shard_dir)


class ItemShardIndex:
    """Partial top-K over one item shard, in global item ids.

    ``scorer`` is a :data:`repro.serve.index.SCORERS` instance built
    over ``shard.embeddings`` — the object the unsharded index holds
    over the whole catalogue.  With the shared
    :func:`~repro.eval.masking.mask_seen_items` and canonical
    :func:`~repro.eval.metrics.rank_items`, the partial list is exactly
    the restriction of the global ranking to this shard's items.
    """

    def __init__(self, shard: ItemShard, scorer):
        self.shard = shard
        self.scorer = scorer

    # ------------------------------------------------------------------
    def partial_topk(self, vectors: np.ndarray, k: int,
                     seen_indptr: np.ndarray | None = None,
                     seen_global: np.ndarray | None = None,
                     cand_indptr: np.ndarray | None = None,
                     cand_global: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Top ``min(k, len(shard))`` local candidates per user row.

        Parameters
        ----------
        vectors:
            ``(m, dim)`` scoring-ready user block (float64; the int8
            scorer casts internally), produced by
            :func:`repro.serve.index.scoring_ready_users`.
        k:
            Global list length; clipped to the shard's item count.
        seen_indptr, seen_global:
            Optional request-batch CSR of **global** seen-item ids, one
            row per user in ``vectors``; the shard masks the subset of
            ids it owns.
        cand_indptr, cand_global:
            Optional request-batch CSR of **global** candidate ids (an
            ANN prefilter): when given, each user row may only surface
            items in its candidate set — everything else in the shard
            is masked out before ranking.  A candidate set covering the
            whole catalogue reduces to the unrestricted path.

        Returns ``(global_item_ids, scores)`` of shape ``(m, k_local)``,
        each row sorted by the canonical ``(score desc, global id asc)``
        order.
        """
        scores = self.scorer.scores(vectors, panel_scores)
        if cand_indptr is not None:
            self._restrict_candidates(scores, cand_indptr, cand_global)
        if seen_indptr is not None and len(seen_global):
            local_indptr, local_idx = self._localize_seen(seen_indptr,
                                                          seen_global)
            mask_seen_items(scores, local_indptr, local_idx,
                            np.arange(len(vectors), dtype=np.int64))
        k_local = min(k, len(self.shard))
        top = rank_items(scores, k_local)
        top_scores = np.take_along_axis(scores, top, axis=-1)
        return self.shard.ids[top], top_scores

    def _restrict_candidates(self, scores: np.ndarray,
                             cand_indptr: np.ndarray,
                             cand_global: np.ndarray) -> None:
        """Mask every non-candidate shard item to ``-inf``, in place.

        The shard owns an arbitrary slice of the catalogue, so each
        user's global candidate ids are first localized
        (:meth:`ItemShard.localize`); positions the shard does not own
        are dropped — another shard surfaces them.
        """
        member, local = self.shard.localize(cand_global)
        counts = np.diff(cand_indptr)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        blocked = np.ones_like(scores, dtype=bool)
        blocked[rows[member], local] = False
        scores[blocked] = -np.inf

    def _localize_seen(self, seen_indptr: np.ndarray,
                       seen_global: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Restrict a global seen-item CSR to this shard's local ids."""
        member, local = self.shard.localize(seen_global)
        counts = np.diff(seen_indptr)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        kept = np.bincount(rows[member], minlength=len(counts))
        indptr = np.concatenate([np.zeros(1, dtype=np.int64),
                                 np.cumsum(kept)])
        return indptr, local


class ShardedSnapshot:
    """A loaded sharded snapshot: manifest, shards, and routing tables.

    Exposes the same identity surface as an unsharded
    :class:`~repro.serve.snapshot.EmbeddingSnapshot` (``version``,
    ``scoring``, user/item counts) so
    :class:`~repro.serve.service.RecommendationService` can key caches
    on it unchanged.
    """

    def __init__(self, manifest: ShardedManifest,
                 user_shards: list[UserShard],
                 item_shards: list[ItemShard],
                 path: pathlib.Path | None = None):
        if len(user_shards) != manifest.num_user_shards:
            raise ValueError(f"expected {manifest.num_user_shards} user "
                             f"shards, loaded {len(user_shards)}")
        if len(item_shards) != manifest.num_item_shards:
            raise ValueError(f"expected {manifest.num_item_shards} item "
                             f"shards, loaded {len(item_shards)}")
        self.manifest = manifest
        self.user_shards = user_shards
        self.item_shards = item_shards
        self.path = path
        self._check_coverage()
        # global user id -> (owning shard, local row) routing tables
        self._user_owner = np.full(manifest.num_users, -1, dtype=np.int32)
        self._user_local = np.full(manifest.num_users, -1, dtype=np.int64)
        for s, shard in enumerate(user_shards):
            self._user_owner[shard.ids] = s
            self._user_local[shard.ids] = np.arange(len(shard),
                                                    dtype=np.int64)

    def _check_coverage(self) -> None:
        """Shard id sets must partition the user and item ranges exactly."""
        m = self.manifest
        for kind, shards, n in (("user", self.user_shards, m.num_users),
                                ("item", self.item_shards, m.num_items)):
            merged = np.sort(np.concatenate([s.ids for s in shards])
                             if shards else np.empty(0, np.int64))
            if (len(merged) != n
                    or not np.array_equal(merged,
                                          np.arange(n, dtype=np.int64))):
                raise ValueError(
                    f"{kind} shards do not partition [0, {n}): union has "
                    f"{len(merged)} ids (missing/duplicate ids?)")

    # ------------------------------------------------------------------
    @property
    def version(self) -> str:
        """Content-hash identity (cache key for downstream services)."""
        return self.manifest.version

    @property
    def scoring(self) -> str:
        """Test-time scoring function: ``inner``/``cosine``/``euclidean``."""
        return self.manifest.scoring

    def route_users(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owning shard index and local row for each global user id."""
        users = np.asarray(users, dtype=np.int64)
        return self._user_owner[users], self._user_local[users]

    def gather_user_rows(self, users: np.ndarray) -> np.ndarray:
        """Collect raw embedding rows for global user ids, request order."""
        owner, local = self.route_users(users)
        m = self.manifest
        rows = np.empty((len(users), m.dim), dtype=np.float64)
        for s, shard in enumerate(self.user_shards):
            sel = owner == s
            if sel.any():
                rows[sel] = shard.embeddings[local[sel]]
        return rows

    def gather_seen(self, users: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Request-batch CSR of global seen-item ids, one row per user."""
        owner, local = self.route_users(users)
        return seen_items_csr([self.user_shards[o].seen(p)
                               for o, p in zip(owner.tolist(),
                                               local.tolist())])

    def __repr__(self) -> str:
        m = self.manifest
        return (f"ShardedSnapshot(model={m.model!r}, version={m.version!r}, "
                f"user_shards={m.num_user_shards}, "
                f"item_shards={m.num_item_shards}, "
                f"partition={m.strategy!r} by {m.partition_by!r})")


def load_sharded_snapshot(path, *, mmap: bool = True,
                          verify: bool = False) -> ShardedSnapshot:
    """Open a sharded snapshot directory written by
    :func:`repro.serve.snapshot.export_sharded_snapshot`.

    Parameters
    ----------
    path:
        Directory holding ``shards.json`` plus the shard subdirectories.
    mmap:
        Memory-map each shard's embedding tables read-only (default).
    verify:
        Re-hash every shard's arrays and the top-level manifest; fail
        loudly on any mismatch (detects truncated or edited shards).
    """
    path = pathlib.Path(path)
    manifest_path = path / _SHARDS_MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no sharded snapshot manifest at "
                                f"{manifest_path}")
    manifest = ShardedManifest.from_json(manifest_path.read_text())
    if manifest.schema != SHARDED_SCHEMA:
        raise ValueError(f"sharded snapshot schema {manifest.schema!r} is "
                         f"not {SHARDED_SCHEMA!r}")
    user_shards = [UserShard.load(path / entry["path"], mmap=mmap)
                   for entry in manifest.user_shards]
    item_shards = [ItemShard.load(path / entry["path"], mmap=mmap)
                   for entry in manifest.item_shards]
    snapshot = ShardedSnapshot(manifest, user_shards, item_shards, path=path)
    if verify:
        _verify_sharded(snapshot)
    return snapshot


def _verify_sharded(snapshot: ShardedSnapshot) -> None:
    """Re-hash every shard and the top level; raise on any drift."""
    from repro.serve.snapshot import _content_version, _sharded_version
    m = snapshot.manifest
    child_versions = []
    for shard in snapshot.user_shards:
        sm = shard.manifest
        got = _content_version(
            np.asarray(shard.embeddings), shard.ids,
            np.asarray(shard.seen_indptr), np.asarray(shard.seen_items),
            (SHARD_SCHEMA, "user", sm.index, sm.num_shards, sm.strategy))
        if got != sm.version:
            raise ValueError(f"user shard {sm.index} content hash mismatch "
                             f"(expected {sm.version!r}); shard files were "
                             f"modified after export")
        child_versions.append(got)
    for shard in snapshot.item_shards:
        sm = shard.manifest
        got = _content_version(
            np.asarray(shard.embeddings), shard.ids,
            np.empty(0, np.int64), np.empty(0, np.int64),
            (SHARD_SCHEMA, "item", sm.index, sm.num_shards, sm.strategy))
        if got != sm.version:
            raise ValueError(f"item shard {sm.index} content hash mismatch "
                             f"(expected {sm.version!r}); shard files were "
                             f"modified after export")
        child_versions.append(got)
    identity = (SHARDED_SCHEMA, m.model_class, m.dim, m.num_users,
                m.num_items, m.scoring, m.partition_by, m.strategy,
                m.num_user_shards, m.num_item_shards)
    if _sharded_version(identity, child_versions) != m.version:
        raise ValueError(f"shards.json version {m.version!r} does not match "
                         f"the shard contents; manifest was edited")
