"""Delta snapshots: incremental, hash-chained updates to a live catalogue.

A full :mod:`repro.serve.snapshot` export freezes the whole model; this
module makes the frozen artifact *mutable without rebuilds*.  The pieces:

* :class:`LiveState` — the authoritative mutable state, keyed by
  **stable ids** (a deleted row never renumbers its neighbours, so
  ``delete(u)`` followed by ``upsert(u)`` is exactly ``upsert(u)``).
  Exporting a state lays rows out densely in ascending stable-id order
  and records the id maps in ``manifest.extra["live"]`` (omitted when
  ids are the identity, so plain snapshots are unchanged on disk).
* **Delta directories** (``bsl-serve-delta/v1``) — row upserts/deletes
  written against a base snapshot version.  Each delta's manifest binds
  ``base_version`` → ``new_version`` and carries a content hash over its
  op arrays *and* both chain endpoints, so a tampered file, an edited
  manifest, or a re-based delta all fail verification loudly.
* :func:`apply_deltas` — replays a chain onto a base snapshot and
  produces a snapshot **bit-identical** to a fresh
  :func:`export_state` of the final state (the shared write path in
  :mod:`repro.serve.snapshot` guarantees it; ``created_unix`` is the
  only wall-clock input and is parameterized for exactly this reason).
* :func:`item_transition` — the dense-id transition map between two
  snapshot generations, consumed by the incremental IVF maintenance in
  :mod:`repro.ann.ivf` (posting-list remaps + insertions keyed to the
  delta rows).

Apply order inside one delta is fixed: item deletes (scrubbing the item
from every seen list), user deletes, item upserts, user upserts (row
and seen list replaced atomically; the seen list may reference items
upserted by the same delta).  Deleting a missing id is an error;
upserting an unknown id creates it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time

import numpy as np

from repro.eval.masking import seen_items_csr
from repro.serve.snapshot import (_FILES, _MANIFEST, SNAPSHOT_SCHEMA,
                                  EmbeddingSnapshot, SnapshotManifest,
                                  _content_version, _publish_files,
                                  _remove_stale_layout, _write_arrays)

__all__ = ["DELTA_SCHEMA", "DeltaManifest", "DeltaOps", "Delta",
           "LiveState", "diff_states", "write_delta", "export_delta",
           "load_delta", "is_delta", "replay_deltas", "apply_deltas",
           "snapshot_from_state", "export_state", "live_user_ids",
           "live_item_ids", "item_transition"]

#: Bump when the delta on-disk layout changes incompatibly.
DELTA_SCHEMA = "bsl-serve-delta/v1"

#: op-array attribute -> file name inside a delta directory (fixed
#: order: the content hash folds the arrays in this sequence).
_DELTA_FILES = {
    "user_upsert_ids": "user_upsert_ids.npy",
    "user_upsert_rows": "user_upsert_rows.npy",
    "user_seen_indptr": "user_seen_indptr.npy",
    "user_seen_items": "user_seen_items.npy",
    "item_upsert_ids": "item_upsert_ids.npy",
    "item_upsert_rows": "item_upsert_rows.npy",
    "user_delete_ids": "user_delete_ids.npy",
    "item_delete_ids": "item_delete_ids.npy",
}


@dataclasses.dataclass(frozen=True)
class DeltaManifest:
    """Identity card of one delta directory.

    ``version`` is a content hash over the op arrays *and* the
    ``base_version``/``new_version`` endpoints, so a delta cannot be
    silently re-pointed at a different base, and replaying a chain with
    ``verify=True`` detects any edited array file.
    """

    schema: str
    version: str
    base_version: str
    new_version: str
    model_class: str
    dim: int
    scoring: str
    user_upserts: int
    user_deletes: int
    item_upserts: int
    item_deletes: int

    def to_json(self) -> str:
        """Serialize to the delta's ``manifest.json`` representation."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeltaManifest":
        """Parse a delta ``manifest.json``, rejecting unknown fields."""
        payload = json.loads(text)
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"delta manifest has unknown fields "
                             f"{sorted(unknown)}; written by a newer schema?")
        return cls(**payload)


def _delta_version(identity: tuple, arrays) -> str:
    """Short content hash over a delta's identity and op arrays."""
    digest = hashlib.sha256()
    digest.update(repr(identity).encode())
    for arr in arrays:
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def _ids_array(values) -> np.ndarray:
    """Coerce to a 1-D strictly-ascending int64 id array."""
    ids = np.asarray(values, dtype=np.int64).reshape(-1)
    if len(ids) > 1 and not np.all(np.diff(ids) > 0):
        raise ValueError("delta id arrays must be strictly ascending "
                         "(sorted, unique)")
    return ids


@dataclasses.dataclass(frozen=True)
class DeltaOps:
    """The raw operations of one delta, as dense arrays.

    Upsert ids are stable ids (sorted ascending, unique per array);
    ``user_upsert_rows[i]`` replaces user ``user_upsert_ids[i]`` and
    ``user_seen_items[user_seen_indptr[i]:user_seen_indptr[i + 1]]`` is
    that user's **complete** new seen list (stable item ids, order
    preserved).  Deletes and upserts may overlap: deletes always apply
    first, so an id in both is simply replaced.
    """

    user_upsert_ids: np.ndarray
    user_upsert_rows: np.ndarray
    user_seen_indptr: np.ndarray
    user_seen_items: np.ndarray
    item_upsert_ids: np.ndarray
    item_upsert_rows: np.ndarray
    user_delete_ids: np.ndarray
    item_delete_ids: np.ndarray

    @classmethod
    def empty(cls, dim: int) -> "DeltaOps":
        """The no-op delta for tables of width ``dim``."""
        none = np.empty(0, dtype=np.int64)
        return cls(user_upsert_ids=none,
                   user_upsert_rows=np.empty((0, dim), dtype=np.float64),
                   user_seen_indptr=np.zeros(1, dtype=np.int64),
                   user_seen_items=none,
                   item_upsert_ids=none,
                   item_upsert_rows=np.empty((0, dim), dtype=np.float64),
                   user_delete_ids=none, item_delete_ids=none)

    def validate(self, dim: int) -> None:
        """Check shapes and orderings; raises ``ValueError`` on problems."""
        for name in ("user_upsert_ids", "item_upsert_ids",
                     "user_delete_ids", "item_delete_ids"):
            _ids_array(getattr(self, name))
        for ids, rows, what in ((self.user_upsert_ids, self.user_upsert_rows,
                                 "user"),
                                (self.item_upsert_ids, self.item_upsert_rows,
                                 "item")):
            if rows.shape != (len(ids), dim):
                raise ValueError(f"{what} upsert rows have shape "
                                 f"{rows.shape}, expected ({len(ids)}, {dim})")
        indptr = self.user_seen_indptr
        if (len(indptr) != len(self.user_upsert_ids) + 1 or indptr[0] != 0
                or indptr[-1] != len(self.user_seen_items)
                or not np.all(np.diff(indptr) >= 0)):
            raise ValueError("user_seen_indptr does not span user_seen_items")

    def arrays(self) -> list[np.ndarray]:
        """The op arrays in the canonical (hash) order."""
        return [np.asarray(getattr(self, name)) for name in _DELTA_FILES]

    def seen_of(self, i: int) -> np.ndarray:
        """New seen list (stable item ids) of the ``i``-th upserted user."""
        return np.asarray(self.user_seen_items[
            self.user_seen_indptr[i]:self.user_seen_indptr[i + 1]])

    @property
    def counts(self) -> dict:
        """Op counts, in manifest field order."""
        return {"user_upserts": len(self.user_upsert_ids),
                "user_deletes": len(self.user_delete_ids),
                "item_upserts": len(self.item_upsert_ids),
                "item_deletes": len(self.item_delete_ids)}


@dataclasses.dataclass(frozen=True)
class Delta:
    """One loaded (or freshly written) delta: manifest + op arrays."""

    manifest: DeltaManifest
    ops: DeltaOps
    path: pathlib.Path | None = None

    def recompute_version(self) -> str:
        """Re-hash the op arrays (integrity check against the manifest)."""
        m = self.manifest
        return _delta_version(
            (m.schema, m.model_class, m.dim, m.scoring, m.base_version,
             m.new_version), self.ops.arrays())


class LiveState:
    """Mutable serving state keyed by stable ids.

    The in-memory form deltas are diffed against and applied to.  Rows
    live in plain dicts — ``users[uid]`` / ``items[iid]`` are ``(dim,)``
    float64 rows, ``seen[uid]`` is an int64 array of stable item ids in
    insertion order — so deletions never renumber surviving rows.
    Mutators treat row arrays as immutable (they replace, never write
    in place), which is what makes :meth:`copy` cheap and safe.
    """

    def __init__(self, *, model: str, model_class: str, dim: int,
                 dataset: str, scoring: str, users: dict, items: dict,
                 seen: dict, extra: dict | None = None):
        if set(users) != set(seen):
            raise ValueError("users and seen must be keyed by the same ids")
        self.model = model
        self.model_class = model_class
        self.dim = int(dim)
        self.dataset = dataset
        self.scoring = scoring
        self.users = users
        self.items = items
        self.seen = seen
        self.extra = dict(extra or {})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, snapshot: EmbeddingSnapshot) -> "LiveState":
        """Thaw a (loaded) snapshot back into mutable stable-id form."""
        m = snapshot.manifest
        extra = dict(m.extra)
        live = extra.pop("live", None) or {}
        user_ids = _ids_array(live.get("user_ids", np.arange(m.num_users)))
        item_ids = _ids_array(live.get("item_ids", np.arange(m.num_items)))
        if len(user_ids) != m.num_users or len(item_ids) != m.num_items:
            raise ValueError("live id maps do not match the manifest sizes")
        users = {int(uid): np.array(snapshot.users[i], dtype=np.float64)
                 for i, uid in enumerate(user_ids)}
        items = {int(iid): np.array(snapshot.items[i], dtype=np.float64)
                 for i, iid in enumerate(item_ids)}
        seen = {int(uid): item_ids[snapshot.seen(i)]
                for i, uid in enumerate(user_ids)}
        return cls(model=m.model, model_class=m.model_class, dim=m.dim,
                   dataset=m.dataset, scoring=m.scoring, users=users,
                   items=items, seen=seen, extra=extra)

    def copy(self) -> "LiveState":
        """Independent state sharing the (immutable) row arrays."""
        return LiveState(model=self.model, model_class=self.model_class,
                         dim=self.dim, dataset=self.dataset,
                         scoring=self.scoring, users=dict(self.users),
                         items=dict(self.items), seen=dict(self.seen),
                         extra=dict(self.extra))

    # ------------------------------------------------------------------
    # Mutators (stable-id semantics)
    # ------------------------------------------------------------------
    def _row(self, row, what: str) -> np.ndarray:
        row = np.ascontiguousarray(row, dtype=np.float64).reshape(-1)
        if row.shape != (self.dim,):
            raise ValueError(f"{what} row has shape {row.shape}, expected "
                             f"({self.dim},)")
        return row

    def upsert_item(self, item_id: int, row) -> None:
        """Insert or replace one item row (seen lists are untouched)."""
        self.items[int(item_id)] = self._row(row, "item")

    def upsert_user(self, user_id: int, row, seen_items) -> None:
        """Insert or replace one user: row and full seen list atomically."""
        seen = np.asarray(seen_items, dtype=np.int64).reshape(-1)
        missing = [int(i) for i in seen if int(i) not in self.items]
        if missing:
            raise ValueError(f"seen list of user {int(user_id)} references "
                             f"unknown items {missing[:5]}")
        self.users[int(user_id)] = self._row(row, "user")
        self.seen[int(user_id)] = seen

    def delete_user(self, user_id: int) -> None:
        """Remove one user (and their seen list); missing id is an error."""
        uid = int(user_id)
        if uid not in self.users:
            raise ValueError(f"cannot delete unknown user id {uid}")
        del self.users[uid]
        del self.seen[uid]

    def delete_items(self, item_ids) -> None:
        """Remove items and scrub them from every seen list."""
        gone = {int(i) for i in np.asarray(item_ids, dtype=np.int64).ravel()}
        unknown = sorted(i for i in gone if i not in self.items)
        if unknown:
            raise ValueError(f"cannot delete unknown item ids {unknown[:5]}")
        for iid in gone:
            del self.items[iid]
        for uid, seen in self.seen.items():
            if len(seen) and any(int(i) in gone for i in seen):
                self.seen[uid] = np.array(
                    [i for i in seen if int(i) not in gone], dtype=np.int64)

    def delete_item(self, item_id: int) -> None:
        """Remove one item and scrub it from every seen list."""
        self.delete_items([item_id])

    # ------------------------------------------------------------------
    # Dense projection + identity
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_items(self) -> int:
        return len(self.items)

    def dense_arrays(self):
        """Project to the snapshot layout: ascending stable-id order.

        Returns ``(user_ids, item_ids, users, items, seen_indptr,
        seen_items)`` where the id arrays map dense row -> stable id and
        the seen CSR holds **dense** item positions (what the serving
        stack consumes).
        """
        user_ids = np.array(sorted(self.users), dtype=np.int64)
        item_ids = np.array(sorted(self.items), dtype=np.int64)
        users = np.ascontiguousarray(
            [self.users[int(u)] for u in user_ids],
            dtype=np.float64).reshape(len(user_ids), self.dim)
        items = np.ascontiguousarray(
            [self.items[int(i)] for i in item_ids],
            dtype=np.float64).reshape(len(item_ids), self.dim)
        dense_seen = []
        for uid in user_ids:
            stable = self.seen[int(uid)]
            pos = np.searchsorted(item_ids, stable)
            ok = (pos < len(item_ids)) & (item_ids[np.minimum(
                pos, max(len(item_ids) - 1, 0))] == stable) \
                if len(item_ids) else np.zeros(len(stable), dtype=bool)
            if not np.all(ok):
                raise ValueError(f"seen list of user {int(uid)} references "
                                 f"items not in the catalogue")
            dense_seen.append(pos.astype(np.int64))
        seen_indptr, seen_items = seen_items_csr(dense_seen)
        return user_ids, item_ids, users, items, seen_indptr, seen_items

    def _identity(self) -> tuple:
        return (SNAPSHOT_SCHEMA, self.model_class, self.dim,
                self.num_users, self.num_items, self.scoring)

    def version(self) -> str:
        """Content hash of the would-be export (the chain-link identity)."""
        _, _, users, items, seen_indptr, seen_items = self.dense_arrays()
        return _content_version(users, items, seen_indptr, seen_items,
                                self._identity())

    def __repr__(self) -> str:
        return (f"LiveState(model={self.model!r}, users={self.num_users}, "
                f"items={self.num_items}, dim={self.dim}, "
                f"scoring={self.scoring!r})")


def _as_state(base) -> LiveState:
    """Accept a LiveState or an EmbeddingSnapshot; return a LiveState."""
    if isinstance(base, LiveState):
        return base
    if isinstance(base, EmbeddingSnapshot):
        return LiveState.from_snapshot(base)
    raise TypeError(f"expected LiveState or EmbeddingSnapshot, "
                    f"got {type(base).__name__}")


def _check_identity(state: LiveState, manifest: DeltaManifest) -> None:
    """A delta only applies to states with the same serving identity."""
    mine = (state.model_class, state.dim, state.scoring)
    theirs = (manifest.model_class, manifest.dim, manifest.scoring)
    if mine != theirs:
        raise ValueError(f"delta identity {theirs} does not match state "
                         f"identity {mine}")


# ----------------------------------------------------------------------
# Diff / apply
# ----------------------------------------------------------------------
def diff_states(old, new) -> DeltaOps:
    """The minimal op set turning ``old`` into ``new``.

    Both sides must share the serving identity (model class, dim,
    scoring).  A user whose row and post-scrub seen list are unchanged
    is *not* re-upserted: item deletions already scrub seen lists at
    apply time, so the diff only records genuine edits.
    """
    old, new = _as_state(old), _as_state(new)
    if ((old.model_class, old.dim, old.scoring)
            != (new.model_class, new.dim, new.scoring)):
        raise ValueError("cannot diff states with different identities")
    item_deletes = sorted(set(old.items) - set(new.items))
    user_deletes = sorted(set(old.users) - set(new.users))
    item_upserts = sorted(
        iid for iid, row in new.items.items()
        if iid not in old.items or not np.array_equal(old.items[iid], row))
    gone = set(item_deletes)
    user_upserts = []
    for uid, row in new.users.items():
        old_row = old.users.get(uid)
        if old_row is None or not np.array_equal(old_row, row):
            user_upserts.append(uid)
            continue
        expected = old.seen[uid]
        if gone and len(expected):
            expected = np.array([i for i in expected if int(i) not in gone],
                                dtype=np.int64)
        if not np.array_equal(new.seen[uid], expected):
            user_upserts.append(uid)
    user_upserts.sort()
    seen_indptr, seen_items = seen_items_csr(
        [new.seen[u] for u in user_upserts])
    dim = new.dim
    return DeltaOps(
        user_upsert_ids=np.array(user_upserts, dtype=np.int64),
        user_upsert_rows=np.ascontiguousarray(
            [new.users[u] for u in user_upserts],
            dtype=np.float64).reshape(len(user_upserts), dim),
        user_seen_indptr=seen_indptr, user_seen_items=seen_items,
        item_upsert_ids=np.array(item_upserts, dtype=np.int64),
        item_upsert_rows=np.ascontiguousarray(
            [new.items[i] for i in item_upserts],
            dtype=np.float64).reshape(len(item_upserts), dim),
        user_delete_ids=np.array(user_deletes, dtype=np.int64),
        item_delete_ids=np.array(item_deletes, dtype=np.int64))


def apply_ops(state: LiveState, ops: DeltaOps) -> LiveState:
    """Apply one delta's ops to ``state`` in place (fixed op order)."""
    ops.validate(state.dim)
    if len(ops.item_delete_ids):
        state.delete_items(ops.item_delete_ids)
    for uid in ops.user_delete_ids:
        state.delete_user(int(uid))
    for iid, row in zip(ops.item_upsert_ids, ops.item_upsert_rows):
        state.upsert_item(int(iid), row)
    for i, (uid, row) in enumerate(zip(ops.user_upsert_ids,
                                       ops.user_upsert_rows)):
        state.upsert_user(int(uid), row, ops.seen_of(i))
    return state


# ----------------------------------------------------------------------
# Delta IO
# ----------------------------------------------------------------------
def write_delta(base, ops: DeltaOps, out_dir) -> Delta:
    """Persist one delta directory binding ``base`` to ``apply(base, ops)``.

    ``new_version`` is computed by actually applying the ops to a copy
    of the base, so a written delta can never declare a transition it
    does not perform.
    """
    state = _as_state(base)
    ops.validate(state.dim)
    base_version = state.version()
    new_version = apply_ops(state.copy(), ops).version()
    identity = (DELTA_SCHEMA, state.model_class, state.dim, state.scoring,
                base_version, new_version)
    manifest = DeltaManifest(
        schema=DELTA_SCHEMA,
        version=_delta_version(identity, ops.arrays()),
        base_version=base_version, new_version=new_version,
        model_class=state.model_class, dim=state.dim, scoring=state.scoring,
        **ops.counts)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A killed writer leaves either no delta (no manifest) or complete
    # old files — never a truncated array.
    _publish_files(out_dir,
                   {fname: np.ascontiguousarray(getattr(ops, name))
                    for name, fname in _DELTA_FILES.items()}, manifest)
    return Delta(manifest=manifest, ops=ops, path=out_dir)


def export_delta(old, new, out_dir) -> Delta:
    """Diff two states and persist the delta (``old`` -> ``new``)."""
    return write_delta(old, diff_states(old, new), out_dir)


def is_delta(path) -> bool:
    """True if ``path`` holds a delta directory (schema check included)."""
    manifest_path = pathlib.Path(path) / _MANIFEST
    if not manifest_path.is_file():
        return False
    try:
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return payload.get("schema") == DELTA_SCHEMA


def load_delta(path, *, verify: bool = True) -> Delta:
    """Open a delta directory written by :func:`write_delta`.

    ``verify=True`` (the default — deltas are small) re-hashes the op
    arrays against the manifest's ``version`` and fails loudly on any
    tampered or truncated file.
    """
    path = pathlib.Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no delta manifest at {manifest_path}")
    manifest = DeltaManifest.from_json(manifest_path.read_text())
    if manifest.schema != DELTA_SCHEMA:
        raise ValueError(f"delta schema {manifest.schema!r} is not "
                         f"{DELTA_SCHEMA!r}")
    arrays = {name: np.load(path / fname, allow_pickle=False)
              for name, fname in _DELTA_FILES.items()}
    delta = Delta(manifest=manifest, ops=DeltaOps(**arrays), path=path)
    delta.ops.validate(manifest.dim)
    if verify and delta.recompute_version() != manifest.version:
        raise ValueError(
            f"delta content hash does not match manifest version "
            f"{manifest.version!r}; files were modified after export")
    return delta


def _as_delta(entry, *, verify: bool) -> Delta:
    if isinstance(entry, Delta):
        return entry
    return load_delta(entry, verify=verify)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_deltas(base, deltas, *, verify: bool = True) -> LiveState:
    """Apply a delta chain to a base snapshot/state; returns the state.

    Every link is checked: the delta's identity must match the state,
    its ``base_version`` must equal the state's *computed* version (so
    out-of-order and wrong-base chains fail before mutating anything),
    and after applying, the state's version must equal the declared
    ``new_version`` (so a delta that lies about its outcome is caught).
    """
    state = _as_state(base).copy()
    version = state.version()
    for i, entry in enumerate(deltas):
        delta = _as_delta(entry, verify=verify)
        _check_identity(state, delta.manifest)
        if delta.manifest.base_version != version:
            raise ValueError(
                f"delta chain broken at position {i}: delta expects base "
                f"version {delta.manifest.base_version!r} but the state is "
                f"at {version!r} (out-of-order or wrong-base chain?)")
        apply_ops(state, delta.ops)
        version = state.version()
        if version != delta.manifest.new_version:
            raise ValueError(
                f"delta chain broken at position {i}: applying produced "
                f"version {version!r}, manifest declares "
                f"{delta.manifest.new_version!r}")
    return state


def apply_deltas(base, deltas, out_dir=None, *, verify: bool = True,
                 created_unix: float | None = None) -> EmbeddingSnapshot:
    """Replay a delta chain and materialize the resulting snapshot.

    With ``out_dir`` the snapshot is written to disk through the same
    write path as a fresh export — byte-identical to
    :func:`export_state` of the final state (pass the same
    ``created_unix`` to pin the one wall-clock field).  Without
    ``out_dir`` an in-memory snapshot is returned.
    """
    state = replay_deltas(base, deltas, verify=verify)
    if out_dir is None:
        return snapshot_from_state(state, created_unix=created_unix)
    return export_state(state, out_dir, created_unix=created_unix)


# ----------------------------------------------------------------------
# State -> snapshot
# ----------------------------------------------------------------------
def _state_manifest(state: LiveState, user_ids: np.ndarray,
                    item_ids: np.ndarray, version: str,
                    created_unix: float | None) -> SnapshotManifest:
    extra = dict(state.extra)
    identity_ids = (np.array_equal(user_ids, np.arange(len(user_ids)))
                    and np.array_equal(item_ids, np.arange(len(item_ids))))
    if not identity_ids:
        extra["live"] = {"user_ids": [int(u) for u in user_ids],
                         "item_ids": [int(i) for i in item_ids]}
    return SnapshotManifest(
        schema=SNAPSHOT_SCHEMA, version=version, model=state.model,
        model_class=state.model_class, dim=state.dim,
        num_users=len(user_ids), num_items=len(item_ids),
        dataset=state.dataset, scoring=state.scoring,
        created_unix=time.time() if created_unix is None
        else float(created_unix),
        extra=extra)


def snapshot_from_state(state: LiveState, *,
                        created_unix: float | None = None
                        ) -> EmbeddingSnapshot:
    """Materialize a state as an in-memory snapshot (no files written)."""
    (user_ids, item_ids, users, items,
     seen_indptr, seen_items) = state.dense_arrays()
    version = _content_version(users, items, seen_indptr, seen_items,
                               state._identity())
    manifest = _state_manifest(state, user_ids, item_ids, version,
                               created_unix)
    return EmbeddingSnapshot(manifest, users, items, seen_indptr, seen_items)


def export_state(state: LiveState, out_dir, *,
                 created_unix: float | None = None) -> EmbeddingSnapshot:
    """Write a state as a full snapshot directory (the fresh-export path).

    Uses the exact write path of
    :func:`repro.serve.snapshot.export_snapshot`, which is what makes
    "replayed delta chain == from-scratch export" checkable byte for
    byte (``created_unix`` being the only wall-clock input).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale_layout(out_dir, for_sharded=False)
    (user_ids, item_ids, users, items,
     seen_indptr, seen_items) = state.dense_arrays()
    version = _content_version(users, items, seen_indptr, seen_items,
                               state._identity())
    manifest = _state_manifest(state, user_ids, item_ids, version,
                               created_unix)
    _write_arrays(out_dir, manifest, users, items, seen_indptr, seen_items)
    return EmbeddingSnapshot(manifest, users, items, seen_indptr, seen_items,
                             path=out_dir)


# ----------------------------------------------------------------------
# Dense-id transitions (consumed by incremental IVF maintenance)
# ----------------------------------------------------------------------
def live_user_ids(snapshot: EmbeddingSnapshot) -> np.ndarray:
    """Dense row -> stable user id map of one snapshot."""
    live = snapshot.manifest.extra.get("live") or {}
    return _ids_array(live.get("user_ids",
                               np.arange(snapshot.manifest.num_users)))


def live_item_ids(snapshot: EmbeddingSnapshot) -> np.ndarray:
    """Dense row -> stable item id map of one snapshot."""
    live = snapshot.manifest.extra.get("live") or {}
    return _ids_array(live.get("item_ids",
                               np.arange(snapshot.manifest.num_items)))


def item_transition(old: EmbeddingSnapshot, new: EmbeddingSnapshot):
    """Dense item-id transition between two snapshot generations.

    Returns ``(old_to_new, added, changed)``:

    * ``old_to_new[i]`` — new dense position of old dense item ``i``,
      or ``-1`` if the item was deleted (matched by stable id);
    * ``added`` — new dense positions with no old counterpart;
    * ``changed`` — new dense positions of *surviving* items whose
      embedding row differs from the old generation (their IVF postings
      stay in place but any PQ codes must be re-encoded).
    """
    old_ids, new_ids = live_item_ids(old), live_item_ids(new)
    pos = np.searchsorted(new_ids, old_ids)
    safe = np.minimum(pos, max(len(new_ids) - 1, 0))
    survives = ((pos < len(new_ids)) & (new_ids[safe] == old_ids)
                if len(new_ids) else np.zeros(len(old_ids), dtype=bool))
    old_to_new = np.where(survives, pos, -1).astype(np.int64)
    hit = np.zeros(len(new_ids), dtype=bool)
    hit[old_to_new[survives]] = True
    added = np.flatnonzero(~hit).astype(np.int64)
    old_rows = np.asarray(old.items)[survives]
    new_rows = np.asarray(new.items)[old_to_new[survives]]
    differs = (old_rows != new_rows).any(axis=1) if len(old_rows) else \
        np.zeros(0, dtype=bool)
    changed = np.sort(old_to_new[survives][differs]).astype(np.int64)
    return old_to_new, added, changed
