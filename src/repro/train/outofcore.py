"""Out-of-core model tables: mmap-backed embeddings for million-scale MF.

The sparse-grad training path already touches only the sampled rows of
each embedding table per step: ``fused_sampled_scores`` reads them from
the table without a copy, and ``SparseAdam`` updates only them, over
moments allocated as untouched zero pages that become resident only as
rows are first updated.  So the only dense state left is the tables
themselves.  This module keeps them on disk:

* :func:`init_mmap_mf_tables` draws the Xavier tables chunk-by-chunk
  straight into float64 ``.npy`` memmaps.  Cast to float32, they equal
  the in-memory ``MF(rng=seed)`` initialization, because row-block
  ``uniform`` draws consume the generator's value stream in the same
  order, the bound comes from the full-table fans
  (:func:`~repro.nn.init.xavier_limit`), and the in-memory initializer
  rounds that same float64 stream to float32.  The files keep float64
  (see ``docs/training.md``, "Dtypes"): the out-of-core path trains in
  float64.
* :func:`open_mmap_mf` wraps the on-disk tables in an :class:`MF` whose
  parameters alias the memmaps (``Embedding(weight=...)``), so in-place
  optimizer updates dirty only the touched pages and the OS writes them
  back; process RSS follows the *touched* rows, not the catalogue.
* :func:`flush_model` forces dirty pages to disk (after an epoch /
  before an export reads the same files).

Training at scale goes through the normal ``Trainer`` with
``grad_mode="sparse"`` and an out-of-core
:class:`~repro.data.source.ShardedInteractionSource` — the parity suite
(``tests/test_outofcore.py``) pins streamed-epoch parameters
byte-identical to the in-memory epoch over copies of the same float64
tables at small scale.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.models.mf import MF
from repro.nn.init import xavier_limit
from repro.tensor.random import spawn_rngs

__all__ = ["init_mmap_table", "init_mmap_mf_tables", "open_mmap_mf",
           "flush_model", "USER_TABLE", "ITEM_TABLE"]

USER_TABLE = "user_table.npy"
ITEM_TABLE = "item_table.npy"
DEFAULT_CHUNK_ROWS = 65_536


def init_mmap_table(path: str | pathlib.Path, num_rows: int, dim: int,
                    rng, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
                    ) -> pathlib.Path:
    """Write a Xavier-uniform ``(num_rows, dim)`` table as a ``.npy`` memmap.

    Drawn in ``chunk_rows`` row blocks from ``rng`` — the value stream
    equals one full-shape ``xavier_uniform`` call, which rounds it to
    float32, so the file cast to float32 matches the in-memory
    initialization; only ``chunk_rows * dim`` doubles are ever resident.
    """
    path = pathlib.Path(path)
    bound = xavier_limit((num_rows, dim))
    table = np.lib.format.open_memmap(path, mode="w+", dtype=np.float64,
                                      shape=(num_rows, dim))
    try:
        for lo in range(0, num_rows, chunk_rows):
            hi = min(lo + chunk_rows, num_rows)
            table[lo:hi] = rng.uniform(-bound, bound, size=(hi - lo, dim))
        table.flush()
    finally:
        del table
    return path


def init_mmap_mf_tables(table_dir: str | pathlib.Path, num_users: int,
                        num_items: int, dim: int, rng=None, *,
                        chunk_rows: int = DEFAULT_CHUNK_ROWS) -> pathlib.Path:
    """Initialize on-disk MF user/item tables, mirroring ``MF(rng=...)``.

    Uses the same ``spawn_rngs(rng, 2)`` user/item split as the ``MF``
    constructor, so ``open_mmap_mf(dir)`` starts from the float64 draws
    that ``MF(num_users, num_items, dim, rng=rng)`` rounds to float32.
    """
    table_dir = pathlib.Path(table_dir)
    table_dir.mkdir(parents=True, exist_ok=True)
    user_rng, item_rng = spawn_rngs(rng, 2)
    init_mmap_table(table_dir / USER_TABLE, num_users, dim, user_rng,
                    chunk_rows=chunk_rows)
    init_mmap_table(table_dir / ITEM_TABLE, num_items, dim, item_rng,
                    chunk_rows=chunk_rows)
    return table_dir


def open_mmap_mf(table_dir: str | pathlib.Path, *, mode: str = "r+") -> MF:
    """Open on-disk tables as an :class:`MF` aliasing the memmaps.

    ``mode="r+"`` (default) makes optimizer updates land in the files;
    use ``mode="r"`` for read-only consumers such as the exporter.
    """
    table_dir = pathlib.Path(table_dir)
    users = np.load(table_dir / USER_TABLE, mmap_mode=mode)
    items = np.load(table_dir / ITEM_TABLE, mmap_mode=mode)
    if users.ndim != 2 or items.ndim != 2 or users.shape[1] != items.shape[1]:
        raise ValueError(f"{table_dir}: malformed MF tables "
                         f"{users.shape} / {items.shape}")
    return MF(users.shape[0], items.shape[0], users.shape[1],
              tables=(users, items))


def flush_model(model) -> None:
    """Flush every memmap-backed parameter of ``model`` to disk."""
    for param in model.parameters():
        candidate = param.data
        while candidate is not None:
            if isinstance(candidate, np.memmap):
                candidate.flush()
                break
            candidate = getattr(candidate, "base", None)
