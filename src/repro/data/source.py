"""Interaction sources: one access protocol for in-memory and on-disk data.

Samplers, the sparse-grad trainer, the evaluator and the exporters read
train interactions through :class:`InteractionSource`, and nothing in it
needs ``O(num_users * num_items)`` memory.  A source *is* one CSR of the
train pairs — row pointers over users, items grouped by user in original
pair order, and an item degree table — and every access method except
``pairs()`` is derived from those three arrays here, once.  The two
backends differ only in how the arrays are opened:

* :class:`~repro.data.dataset.InteractionDataset` builds them in memory
  from its pair arrays, and
* :class:`ShardedInteractionSource` memory-maps the on-disk shard layout
  written by :func:`write_interaction_shards` or the scale generator in
  :mod:`repro.data.synthetic`, never materializing dense state.

A dataset and a ``ShardedInteractionSource`` over the same pairs answer
every method identically (``tests/test_data_source.py``), which is what
makes streamed training bit-exact.

On-disk layout (``bsl-interaction-shards/v1``), all arrays ``int64``::

    <dir>/interactions.json   manifest: schema, name, counts, pair blocks
    <dir>/pairs-XXX.npy       (rows, 2) train pairs, original order,
                              split into fixed-size row blocks
    <dir>/indptr.npy          (num_users + 1,) CSR row pointers
    <dir>/csr_items.npy       (num_train,) items grouped by user, within
                              a user in original pair order
    <dir>/item_degrees.npy    (num_items,) interaction count per item
    <dir>/test_pairs.npy      (num_test, 2) held-out pairs (may be empty)
"""

from __future__ import annotations

import json
import pathlib
import time
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.data.dataset import InteractionDataset

INTERACTION_SHARDS_SCHEMA = "bsl-interaction-shards/v1"
_MANIFEST_NAME = "interactions.json"
DEFAULT_BLOCK_ROWS = 1 << 21


def _group_by_user(pairs: np.ndarray,
                   num_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, items)`` CSR of ``pairs`` grouped by user.

    A stable sort, so within a user items keep original pair order.
    """
    order = np.argsort(pairs[:, 0], kind="stable")
    items = pairs[order, 1]
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=num_users), out=indptr[1:])
    items.flags.writeable = indptr.flags.writeable = False
    return indptr, items


def batch_contains(sorted_padded: np.ndarray,
                   queries: np.ndarray) -> np.ndarray:
    """Row-wise membership test against sorted padded positive lists.

    ``out[b, j]`` is True iff ``queries[b, j]`` appears in row ``b`` of
    ``sorted_padded`` (ascending item ids padded with a sentinel larger
    than any item id).  Equivalent to gathering a dense
    ``(num_users, num_items)`` positive mask at ``[users[:, None],
    queries]`` but needs only the batch rows, via one searchsorted over
    row-offset keys.
    """
    n_rows, width = sorted_padded.shape
    if width == 0 or queries.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    # Rows are ascending, so the last column holds each row's maximum.
    base = int(max(sorted_padded[:, -1].max(), queries.max())) + 1
    offsets = np.arange(n_rows, dtype=np.int64) * base
    keys = (sorted_padded.astype(np.int64) + offsets[:, None]).ravel()
    probes = (queries.astype(np.int64) + offsets[:, None]).ravel()
    pos = np.searchsorted(keys, probes)
    pos = np.minimum(pos, keys.size - 1)
    return (keys[pos] == probes).reshape(queries.shape)


def _sorted_padded_from_lists(rows: np.ndarray, valid: np.ndarray,
                              num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Dedupe + sentinel-pad per-row item lists.

    ``rows`` is ``(B, W)`` with garbage beyond ``valid``; output width is
    ``max(1, distinct_degrees.max())`` with pad cells set to the
    sentinel ``num_items + width + 1``.
    """
    n_rows, width = rows.shape
    if width == 0:
        rows = np.zeros((n_rows, 1), dtype=np.int64)
        valid = np.zeros((n_rows, 1), dtype=bool)
        width = 1
    big = np.int64(num_items) + width + 1
    work = np.where(valid, rows, big)
    work.sort(axis=1)
    # Mark duplicates (equal to their left neighbour) invalid as well.
    dup = np.zeros_like(valid)
    dup[:, 1:] = work[:, 1:] == work[:, :-1]
    distinct = np.where(dup | (work >= big), big, work)
    distinct.sort(axis=1)
    degrees_distinct = (distinct < big).sum(axis=1).astype(np.int64)
    out_width = max(1, int(degrees_distinct.max(initial=0)))
    out = distinct[:, :out_width]
    sentinel = np.int64(num_items) + out_width + 1
    return np.where(out >= big, sentinel, out), degrees_distinct


class InteractionSource:
    """Access protocol shared by in-memory and out-of-core train data.

    A backend sets the identity fields ``name`` / ``num_users`` /
    ``num_items`` / ``num_train`` and the resident ``(num_test, 2)``
    held-out ``test_pairs``, implements :meth:`pairs`, and opens the
    three arrays every other method reads: ``_indptr``
    (``num_users + 1`` CSR row pointers), ``_csr_items`` (``num_train``
    items grouped by user, within a user in original pair order) and
    ``_item_degrees`` (``num_items`` train counts).  Batch views touch
    only the batch's CSR rows.
    """

    name: str
    num_users: int
    num_items: int
    num_train: int
    test_pairs: np.ndarray
    _indptr: np.ndarray
    _csr_items: np.ndarray
    _item_degrees: np.ndarray

    def pairs(self, indices: np.ndarray) -> np.ndarray:
        """Gather ``(len(indices), 2)`` train pairs by row index."""
        raise NotImplementedError

    def user_degrees(self) -> np.ndarray:
        """Raw interaction count per user (duplicates included)."""
        return np.diff(self._indptr)

    def train_csr(self, lo: int = 0,
                  hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Train items grouped by user for the user row-range [lo, hi).

        Returns ``(indptr, items)`` with ``indptr`` rebased so that
        ``indptr[0] == 0``; within a user, items keep original pair
        order.  ``items`` is a read-only view of the source's column.
        """
        hi = self.num_users if hi is None else hi
        window = self._indptr[lo:hi + 1]
        items = np.asarray(self._csr_items[window[0]:window[-1]],
                           dtype=np.int64)
        return window - window[0], items

    def test_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, items)`` of the held-out pairs by user,
        within a user in pair order; grouped on first use."""
        return self._test_csr

    @cached_property
    def _test_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _group_by_user(self.test_pairs, self.num_users)

    def _batch_lists(self,
                     users: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """(rows, valid, degrees) of the users' CSR segments, 0-padded."""
        users = np.asarray(users, dtype=np.int64)
        starts = self._indptr[users]
        degrees = self._indptr[users + 1] - starts
        width = int(degrees.max(initial=0))
        if width == 0:
            return (np.zeros((len(users), 0), dtype=np.int64),
                    np.zeros((len(users), 0), dtype=bool), degrees)
        offsets = np.arange(width, dtype=np.int64)[None, :]
        valid = offsets < degrees[:, None]
        flat = np.where(valid, starts[:, None] + offsets, 0).ravel()
        rows = np.asarray(self._csr_items[flat],
                          dtype=np.int64).reshape(len(users), width)
        return np.where(valid, rows, 0), valid, degrees

    def batch_sorted_positives(
            self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ascending positives per batch row, sentinel-padded.

        Returns ``(padded, degrees)`` shaped ``(len(users), width)`` and
        ``(len(users),)``: row ``b`` holds the distinct positive items
        of ``users[b]`` ascending, and ``degrees[b]`` counts them.
        ``width`` is ``max(1, degrees.max())``; pad cells hold a
        sentinel greater than ``num_items + width``, so shifted values
        (``item - column``) of pad cells never collide with a real rank.
        """
        rows, valid, _ = self._batch_lists(users)
        return _sorted_padded_from_lists(rows, valid, self.num_items)

    def batch_padded_positives(
            self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion-order positives per batch row, zero-padded.

        Returns ``(padded, degrees)``: row ``b`` holds the items of
        ``users[b]`` in original pair order, duplicates kept, then ``0``
        (callers mask by degree); ``degrees[b]`` is the raw interaction
        count.  At least one column wide.
        """
        rows, valid, degrees = self._batch_lists(users)
        if rows.shape[1] == 0:
            rows = np.zeros((len(users), 1), dtype=np.int64)
        return rows, degrees

    @property
    def item_popularity(self) -> np.ndarray:
        """Interaction count per item over the train split."""
        return self._item_degrees

    def iter_pair_indices(self, block_rows: int) -> Iterator[np.ndarray]:
        """Sequential row-index blocks covering all train pairs."""
        for lo in range(0, self.num_train, block_rows):
            yield np.arange(lo, min(lo + block_rows, self.num_train),
                            dtype=np.int64)


class ShardedInteractionSource(InteractionSource):
    """Memory-mapped backend over the on-disk shard layout.

    Pair blocks and the grouped item column stay on disk; only the
    ``(num_users + 1,)`` row pointers and the ``(num_items,)`` item
    degrees are resident — a few bytes per entity.  Opening checks every
    array's shape against the manifest and the resident row pointers'
    values, but never reads the mapped item column.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        manifest = json.loads((self.path / _MANIFEST_NAME).read_text())
        if manifest.get("schema") != INTERACTION_SHARDS_SCHEMA:
            raise ValueError(
                f"{self.path}: expected schema {INTERACTION_SHARDS_SCHEMA!r},"
                f" found {manifest.get('schema')!r}")
        self.manifest = manifest
        self.name = manifest["name"]
        self.num_users = int(manifest["num_users"])
        self.num_items = int(manifest["num_items"])
        self.num_train = int(manifest["num_train"])
        self._blocks = [
            np.load(self.path / block["path"], mmap_mode="r")
            for block in manifest["pair_blocks"]
        ]
        rows = np.array([block["rows"] for block in manifest["pair_blocks"]],
                        dtype=np.int64)
        self._block_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(rows)])
        if int(self._block_offsets[-1]) != self.num_train:
            raise ValueError(f"{self.path}: pair blocks cover "
                             f"{int(self._block_offsets[-1])} rows, manifest "
                             f"says {self.num_train}")
        self._indptr = np.load(self.path / "indptr.npy")
        self._csr_items = np.load(self.path / "csr_items.npy", mmap_mode="r")
        self._item_degrees = np.load(self.path / "item_degrees.npy")
        self.test_pairs = np.load(self.path / "test_pairs.npy")
        self._check_arrays()

    def _check_arrays(self) -> None:
        shapes = {"indptr": (self._indptr, (self.num_users + 1,)),
                  "csr_items": (self._csr_items, (self.num_train,)),
                  "item_degrees": (self._item_degrees, (self.num_items,))}
        for stem, (array, shape) in shapes.items():
            if array.shape != shape:
                raise ValueError(f"{self.path}: {stem}.npy has shape "
                                 f"{array.shape}, the manifest implies "
                                 f"{shape}")
        if self._indptr[0] != 0 or self._indptr[-1] != self.num_train:
            raise ValueError(f"{self.path}: indptr.npy spans "
                             f"[{self._indptr[0]}, {self._indptr[-1]}], the "
                             f"manifest says {self.num_train} pairs")
        if np.any(np.diff(self._indptr) < 0):
            raise ValueError(f"{self.path}: indptr.npy is not monotone")
        if self.test_pairs.ndim != 2 or self.test_pairs.shape[1] != 2:
            raise ValueError(f"{self.path}: test_pairs.npy has shape "
                             f"{self.test_pairs.shape}, expected (n, 2)")

    def pairs(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((len(indices), 2), dtype=np.int64)
        block_of = np.searchsorted(self._block_offsets, indices,
                                   side="right") - 1
        for b in np.unique(block_of):
            mask = block_of == b
            out[mask] = self._blocks[b][indices[mask]
                                        - self._block_offsets[b]]
        return out


def as_source(data) -> InteractionSource:
    """Coerce a dataset / source / shard directory into a source."""
    if isinstance(data, InteractionSource):
        return data
    if isinstance(data, (str, pathlib.Path)):
        return ShardedInteractionSource(data)
    raise TypeError(f"cannot build an InteractionSource from {type(data)!r}")


class _NpyStream:
    """Append raw rows to a ``.npy`` file of known final shape.

    Writes the array header up front, then streams chunks through
    buffered ``write()`` calls — dirty pages live in the kernel page
    cache, never in process RSS, which keeps shard generation flat in
    memory regardless of catalogue size.
    """

    def __init__(self, path: pathlib.Path, shape: tuple[int, ...],
                 dtype=np.int64):
        self.path = path
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self._written = 0
        self._fp = open(path, "wb")
        # write_array_header_1_0 emits the magic prefix itself.
        np.lib.format.write_array_header_1_0(
            self._fp, {"descr": np.lib.format.dtype_to_descr(self.dtype),
                       "fortran_order": False, "shape": shape})

    def append(self, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=self.dtype)
        self._fp.write(chunk.tobytes())
        self._written += chunk.shape[0] if chunk.ndim else chunk.size

    def close(self) -> None:
        self._fp.close()
        if self._written != self.shape[0]:
            raise ValueError(f"{self.path}: wrote {self._written} rows, "
                             f"header promised {self.shape[0]}")


def _pair_block_plan(num_train: int, block_rows: int) -> list[int]:
    if num_train <= 0:
        return [0]
    full, rem = divmod(num_train, block_rows)
    return [block_rows] * full + ([rem] if rem else [])


def _block_name(index: int) -> str:
    return f"pairs-{index:03d}.npy"


def _finish_layout(out_dir: pathlib.Path, *, name: str, num_users: int,
                   num_items: int, indptr: np.ndarray,
                   item_degrees: np.ndarray, test_pairs, block_rows: int,
                   config: dict, created_unix: float) -> None:
    """Write the row pointers, item degrees, test split and manifest.

    The pair blocks and ``csr_items.npy`` must already be on disk; the
    manifest goes last, so a directory without one is incomplete.
    """
    if test_pairs is None:
        test_pairs = np.empty((0, 2), dtype=np.int64)
    test_pairs = np.asarray(test_pairs, dtype=np.int64)
    num_train = int(indptr[-1])
    np.save(out_dir / "indptr.npy", indptr)
    np.save(out_dir / "item_degrees.npy",
            np.asarray(item_degrees, dtype=np.int64))
    np.save(out_dir / "test_pairs.npy", test_pairs)
    manifest = {
        "schema": INTERACTION_SHARDS_SCHEMA,
        "name": name,
        "num_users": num_users,
        "num_items": num_items,
        "num_train": num_train,
        "num_test": int(len(test_pairs)),
        "block_rows": block_rows,
        "pair_blocks": [
            {"path": _block_name(i), "rows": rows}
            for i, rows in enumerate(_pair_block_plan(num_train, block_rows))
        ],
        "config": config,
        "created_unix": created_unix,
    }
    (out_dir / _MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class InteractionShardWriter:
    """Streaming writer for the shard layout, grouped-by-user input.

    ``append(users, items)`` must be called with non-decreasing user ids
    across all calls (each user's pairs contiguous); the pair blocks
    then double as the CSR grouping and ``csr_items`` is exactly the
    pair item column.  Degrees are accumulated incrementally so no
    per-interaction state is ever fully resident.
    """

    def __init__(self, out_dir: str | pathlib.Path, *, name: str,
                 num_users: int, num_items: int, num_train: int,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 config: dict | None = None,
                 created_unix: float | None = None):
        self.out_dir = pathlib.Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.num_users = num_users
        self.num_items = num_items
        self.num_train = num_train
        self.block_rows = block_rows
        self.config = dict(config or {})
        self.created_unix = (time.time() if created_unix is None
                             else created_unix)
        self._block_plan = _pair_block_plan(num_train, block_rows)
        self._block_index = 0
        self._block_written = 0
        self._pair_stream: _NpyStream | None = None
        self._csr_stream = _NpyStream(self.out_dir / "csr_items.npy",
                                      (num_train,))
        self._user_counts = np.zeros(num_users, dtype=np.int64)
        self._item_counts = np.zeros(num_items, dtype=np.int64)
        self._last_user = -1
        self._total = 0

    def _open_block(self) -> _NpyStream:
        rows = self._block_plan[self._block_index]
        return _NpyStream(self.out_dir / _block_name(self._block_index),
                          (rows, 2))

    def append(self, users: np.ndarray, items: np.ndarray) -> None:
        """Stream one chunk of pairs; a rejected chunk changes nothing."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.ndim != 1 or users.shape != items.shape:
            raise ValueError(f"append() needs 1-D users and items of equal "
                             f"length, got {users.shape} and {items.shape}")
        if users.size == 0:
            return
        if users[0] < self._last_user or np.any(np.diff(users) < 0):
            raise ValueError("append() requires non-decreasing user ids")
        if users[-1] >= self.num_users or items.min() < 0 \
                or items.max() >= self.num_items:
            raise ValueError("pair ids out of range for the catalogue")
        if self._total + len(users) > self.num_train:
            raise ValueError(f"more than the promised {self.num_train} pairs")
        self._last_user = int(users[-1])
        self._total += len(users)
        np.add.at(self._user_counts, users, 1)
        np.add.at(self._item_counts, items, 1)
        self._csr_stream.append(items)
        pairs = np.column_stack([users, items])
        lo = 0
        while lo < len(pairs):
            if self._pair_stream is None:
                self._pair_stream = self._open_block()
                self._block_written = 0
            room = self._block_plan[self._block_index] - self._block_written
            take = min(room, len(pairs) - lo)
            self._pair_stream.append(pairs[lo:lo + take])
            self._block_written += take
            lo += take
            if self._block_written == self._block_plan[self._block_index]:
                self._pair_stream.close()
                self._pair_stream = None
                self._block_index += 1

    def close(self, test_pairs: np.ndarray | None = None) -> pathlib.Path:
        if self._total != self.num_train:
            raise ValueError(f"wrote {self._total} pairs, promised "
                             f"{self.num_train}")
        if self._pair_stream is not None:  # only for num_train == 0
            self._pair_stream.close()
            self._pair_stream = None
        if self.num_train == 0:
            np.save(self.out_dir / _block_name(0),
                    np.empty((0, 2), dtype=np.int64))
        self._csr_stream.close()
        _finish_layout(
            self.out_dir, name=self.name, num_users=self.num_users,
            num_items=self.num_items,
            indptr=np.concatenate([np.zeros(1, dtype=np.int64),
                                   np.cumsum(self._user_counts)]),
            item_degrees=self._item_counts, test_pairs=test_pairs,
            block_rows=self.block_rows, config=self.config,
            created_unix=self.created_unix)
        return self.out_dir


def write_interaction_shards(dataset: InteractionDataset,
                             out_dir: str | pathlib.Path, *,
                             block_rows: int = DEFAULT_BLOCK_ROWS
                             ) -> ShardedInteractionSource:
    """Materialize an in-memory dataset as an interaction-shard dir.

    Pair blocks preserve the dataset's original pair order, so
    ``source.pairs(idx) == dataset.train_pairs[idx]`` — the property the
    streamed-epoch parity contract rests on.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = dataset.train_pairs
    lo = 0
    for index, rows in enumerate(_pair_block_plan(len(pairs), block_rows)):
        np.save(out / _block_name(index), pairs[lo:lo + rows])
        lo += rows
    indptr, items = dataset.train_csr()
    np.save(out / "csr_items.npy", items)
    _finish_layout(out, name=dataset.name, num_users=dataset.num_users,
                   num_items=dataset.num_items, indptr=indptr,
                   item_degrees=dataset.item_popularity,
                   test_pairs=dataset.test_pairs, block_rows=block_rows,
                   config={}, created_unix=time.time())
    return ShardedInteractionSource(out)


def is_interaction_shards(path: str | pathlib.Path) -> bool:
    return (pathlib.Path(path) / _MANIFEST_NAME).is_file()
