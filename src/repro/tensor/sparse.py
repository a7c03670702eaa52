"""Row-sparse gradients over the leading axis.

The embedding-lookup primitive :func:`repro.tensor.ops.take_rows` only
touches ``O(batch)`` rows of its table, yet its default backward
materializes a dense ``zeros_like`` of the *whole* table — at
recommendation scale that makes every training step pay
``O(num_users + num_items) * dim`` regardless of the batch size.  With
``take_rows(..., sparse_grad=True)`` the backward instead produces a
:class:`RowSparseGrad`: a coalesced ``(indices, values)`` pair over the
leading axis, mirroring ``torch.sparse_coo`` gradients from
``nn.Embedding(sparse=True)``.

The contract:

* ``indices`` is a 1-D ``int64`` array of **unique, ascending** row
  ids; ``values`` carries one gradient row per index (trailing shape =
  the table's trailing shape).  Duplicate rows in one batch are summed
  ("coalesced") at construction.
* The autograd engine accumulates sparse + sparse gradients without
  densifying; sparse + dense accumulation returns a dense array, and
  :meth:`densify` is the explicit escape hatch used whenever a sparse
  gradient must flow *through* an interior graph node (graph backbones
  propagate through their tables, so their gradients densify anyway —
  see ``Tensor.backward``).
* The row-sparse optimizers (``SparseAdam`` / ``SparseSGD``) update
  only the rows of a :class:`RowSparseGrad` in ``Parameter.grad``; the
  dense optimizers densify it and update every row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowSparseGrad"]


class RowSparseGrad:
    """Coalesced row-sparse gradient: ``dense[indices] == values``.

    Parameters
    ----------
    indices, values:
        Unique ascending in-range row ids (else ``ValueError``) and their
        gradient rows.  Use :meth:`from_rows` to build from a raw
        (possibly duplicated, unsorted) gather pattern.
    shape:
        Shape of the dense gradient this object represents (the
        parameter's shape).
    """

    __slots__ = ("indices", "values", "shape")

    #: Keep numpy from absorbing us into object arrays so that
    #: ``ndarray + RowSparseGrad`` dispatches to :meth:`__radd__`.
    __array_ufunc__ = None

    def __init__(self, indices: np.ndarray, values: np.ndarray, shape: tuple):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values)
        self.shape = tuple(shape)
        if self.indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got {self.indices.shape}")
        if len(self.values) != len(self.indices):
            raise ValueError(
                f"{len(self.indices)} indices but {len(self.values)} value rows")
        if self.values.shape[1:] != self.shape[1:]:
            raise ValueError(f"value rows {self.values.shape[1:]} do not match "
                             f"table trailing shape {self.shape[1:]}")
        idx = self.indices
        if len(idx) and (idx[0] < 0 or idx[-1] >= self.shape[0]
                         or not (idx[1:] > idx[:-1]).all()):
            raise ValueError(f"indices must be strictly ascending row ids in "
                             f"[0, {self.shape[0]}); see from_rows")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, indices, values, shape: tuple) -> "RowSparseGrad":
        """Coalesce a raw scatter pattern into a canonical sparse grad.

        ``indices`` may contain duplicates in any order (one entry per
        gathered row of the batch); duplicate rows are **summed**, never
        overwritten — the same accumulation a dense scatter-add
        performs.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values).reshape(len(indices), *shape[1:])
        if len(indices) == 0:
            return cls(indices, values, shape)
        order = np.argsort(indices, kind="stable")
        sorted_idx = indices[order]
        boundaries = np.empty(len(sorted_idx), dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundaries[1:])
        starts = np.nonzero(boundaries)[0]
        unique = sorted_idx[starts]
        summed = np.add.reduceat(values[order], starts, axis=0)
        return cls(unique, summed, shape)

    # ------------------------------------------------------------------
    # Conversion / introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of nonzero rows."""
        return len(self.indices)

    def densify(self) -> np.ndarray:
        """Materialize the equivalent dense gradient array."""
        out = np.zeros(self.shape, dtype=self.values.dtype
                       if self.values.size else np.float64)
        out[self.indices] = self.values
        return out

    def copy(self) -> "RowSparseGrad":
        return RowSparseGrad(self.indices.copy(), self.values.copy(),
                             self.shape)

    def __repr__(self) -> str:
        return (f"RowSparseGrad(nnz={self.nnz}, shape={self.shape}, "
                f"dtype={self.values.dtype})")

    # ------------------------------------------------------------------
    # Accumulation (what the autograd engine and Parameter.grad use)
    # ------------------------------------------------------------------
    def _merge(self, other: "RowSparseGrad") -> "RowSparseGrad":
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return RowSparseGrad.from_rows(
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.values, other.values]), self.shape)

    def _add_to_dense(self, dense: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense)
        if dense.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {dense.shape}")
        out = dense.copy()
        out[self.indices] += self.values  # indices are unique: plain add
        return out

    def __add__(self, other):
        if isinstance(other, RowSparseGrad):
            return self._merge(other)
        if isinstance(other, np.ndarray):
            return self._add_to_dense(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, np.ndarray):
            return self._add_to_dense(other)
        return NotImplemented
