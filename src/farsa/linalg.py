"""Dense-vector and sparse-matrix kernels shared by the solver modules.

Vectors are plain 1-d ``numpy.float64`` arrays.  The only matrix format is
compressed sparse row (CSR), which is what the logistic objective streams
row-by-row.  Index sets are sorted, duplicate-free ``int64`` arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "as_vector",
    "as_index_set",
    "spmv",
    "spmv_transpose",
]


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 array, checking length if given."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def as_index_set(indices, n: int) -> np.ndarray:
    """Coerce ``indices`` to a strictly increasing int64 array with entries < n."""
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"expected a 1-d index array, got shape {idx.shape}")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError(
                f"index set contains entries outside [0, {n}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        if np.any(np.diff(idx) <= 0):
            raise ValueError("index set must be strictly increasing")
    return idx


class SparseMatrix:
    """Immutable CSR matrix.

    Row ``i`` stores columns ``col_indices[row_offsets[i]:row_offsets[i+1]]``
    with matching ``values``.  Column indices are strictly increasing within
    each row.  Products are delegated to scipy's CSR kernels, which accumulate
    left-to-right within each row, so repeated products are bit-stable on a
    given platform.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._validate()
        self._csr = sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def _validate(self) -> None:
        offs, cols, vals = self.row_offsets, self.col_indices, self.values
        if offs.shape != (self.n_rows + 1,):
            raise ValueError(
                f"row_offsets must have length n_rows+1={self.n_rows + 1}, "
                f"got {offs.shape[0]}"
            )
        if offs[0] != 0 or np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        if offs[-1] != cols.shape[0] or cols.shape != vals.shape:
            raise ValueError(
                f"inconsistent nnz: row_offsets end {offs[-1]}, "
                f"{cols.shape[0]} column indices, {vals.shape[0]} values"
            )
        if cols.size:
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError(
                    f"column index out of range [0, {self.n_cols})"
                )
            # strictly increasing within each row: diffs may only be <= 0 at
            # positions where a new row starts
            bad = np.flatnonzero(np.diff(cols) <= 0) + 1
            row_starts = offs[1:-1]
            if np.any(~np.isin(bad, row_starts)):
                raise ValueError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values contain non-finite entries")

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        csr = sp.csr_matrix(a)
        csr.sort_indices()
        return cls(a.shape[0], a.shape[1], csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def column_submatrix(self, indices) -> "SparseMatrix":
        """Restrict to the given columns (reduced-space products)."""
        idx = as_index_set(indices, self.n_cols)
        sub = self._csr[:, idx].tocsr()
        sub.sort_indices()
        return SparseMatrix(self.n_rows, idx.size, sub.indptr, sub.indices, sub.data)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def spmv(matrix: SparseMatrix, x) -> np.ndarray:
    """Return ``A @ x``."""
    v = as_vector(x)
    if v.shape[0] != matrix.n_cols:
        raise ValueError(
            f"matrix has {matrix.n_cols} columns but vector has length {v.shape[0]}"
        )
    return matrix._csr @ v


def spmv_transpose(matrix: SparseMatrix, x) -> np.ndarray:
    """Return ``A.T @ x``."""
    v = as_vector(x)
    if v.shape[0] != matrix.n_rows:
        raise ValueError(
            f"matrix has {matrix.n_rows} rows but vector has length {v.shape[0]}"
        )
    return matrix._csr.T @ v
