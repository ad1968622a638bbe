"""Dense-vector and sparse-matrix kernels shared by the solver modules.

Vectors are finite 1-d ``numpy.float64`` arrays; index sets are sorted,
duplicate-free and in range.  ``dot`` owns the summation order of every
reduction: each dot product and norm in the package is ``dot``, which sums
pairwise in numpy's fixed order and never calls BLAS, so no iterate depends
on the BLAS thread count.  Only ``as_vector`` (the boundary's check) and
``check_csr``, the one definition of a valid matrix that the constructor and
the LIBSVM parser share, check; the products and slices trust their inputs.

A ``SparseMatrix`` wraps one scipy matrix.  Matrices built through the
constructor are compressed sparse row (CSR), the layout of LIBSVM rows and
of ``A @ x``.  Column slices, which the reduced-space Hessian products use,
come from a column-major (CSC) copy that each matrix builds on its first
slice and keeps; the slices stay CSC.  Transposed products use a view of
the same arrays, created once per matrix.  Both forms give bitwise the same
products (see ``SparseMatrix``), so which one a matrix holds never changes
an iterate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "as_vector",
    "check_csr",
    "dot",
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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(a * b)`` by numpy's pairwise summation, the same on any thread count."""
    return float(np.add.reduce(a * b))


def check_csr(n_rows: int, n_cols: int, offsets, cols, values) -> sp.csr_matrix:
    """The scipy CSR matrix of these arrays, or ``ValueError`` naming the first broken rule.

    ``offsets`` has length n_rows+1, starts at 0, never decreases and ends
    at the number of ``cols`` and ``values``; every column lies in
    [0, n_cols) and strictly increases within its row; every value is
    finite.  int32 indices and float64 values reach scipy uncopied.
    """
    if offsets.shape != (n_rows + 1,):
        raise ValueError(
            f"row_offsets must have length n_rows+1={n_rows + 1}, "
            f"got {offsets.shape[0]}"
        )
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise ValueError("row_offsets must start at 0 and be nondecreasing")
    if offsets[-1] != cols.shape[0] or cols.shape != values.shape:
        raise ValueError(
            f"inconsistent nnz: row_offsets end {offsets[-1]}, "
            f"{cols.shape[0]} column indices, {values.shape[0]} values"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"column index out of range [0, {n_cols})")
    # the checks above come first: scipy's constructor silently drops entries
    # past offsets[-1], and its row-order scan reads cols[offsets[i]:offsets[i+1]]
    # without bounds checks
    matrix = sp.csr_matrix((values, cols, offsets), shape=(n_rows, n_cols))
    if not matrix.has_canonical_format:
        raise ValueError("column indices must be strictly increasing within each row")
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix values contain non-finite entries")
    return matrix


def _index_array(a) -> np.ndarray:
    """int32 indices pass through uncopied; anything else becomes int64."""
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=np.int32 if a.dtype == np.int32 else np.int64)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class SparseMatrix:
    """Immutable sparse matrix with CSR arrays.

    Row ``i`` stores columns ``col_indices[row_offsets[i]:row_offsets[i+1]]``
    with matching ``values``.  Column indices are strictly increasing within
    each row.

    The matrix holds one scipy matrix and no other copy of its arrays:
    ``row_offsets``, ``col_indices`` and ``values`` are read-only views of
    it, with the index dtype scipy picked (int32 whenever the indices fit).
    The constructor keeps the matrix built by ``check_csr``, the one
    definition of a valid matrix; float64 values and int32 indices are not copied.

    ``column_submatrix`` slices a column-major (CSC) copy of the matrix,
    built on the first call and kept, and returns the slice in CSC form,
    unchecked: slicing a validated matrix keeps its invariants.  Reading
    ``row_offsets``, ``col_indices`` or ``values`` of such a slice converts
    it to CSR on each read.  ``spmv_transpose`` multiplies by a transposed
    view of the arrays, created on its first call and kept.

    Products are delegated to scipy's kernels and are bit-stable on a given
    platform: output entry ``i`` of ``A @ x`` is accumulated from 0 over
    the nonzeros of row ``i`` in increasing column order, whether the matrix
    is held row-major (one running sum per row) or column-major (a scatter
    over the columns in order), and likewise for ``A.T @ y`` over the rows
    of each column.  So a column slice gives bitwise the same products as
    the same columns built through the constructor.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        n_rows, n_cols = int(n_rows), int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        offsets, cols = _index_array(row_offsets), _index_array(col_indices)
        values = np.ascontiguousarray(values, dtype=np.float64)
        self._matrix = check_csr(n_rows, n_cols, offsets, cols, values)

    @cached_property
    def _csc(self):
        return self._matrix.tocsc()

    @cached_property
    def _transpose(self):
        return self._matrix.T

    @property
    def n_rows(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self._matrix.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def nnz(self) -> int:
        return self._matrix.nnz

    @property
    def row_offsets(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().indptr)

    @property
    def col_indices(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().indices)

    @property
    def values(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().data)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        csr = sp.csr_matrix(a)
        return cls(a.shape[0], a.shape[1], csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def column_submatrix(self, indices) -> "SparseMatrix":
        """Restrict to ``indices``: sorted, duplicate-free and in range, unchecked."""
        sub = SparseMatrix.__new__(SparseMatrix)
        sub._matrix = self._csc[:, indices]
        return sub

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def spmv(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Return ``A @ x``; ``x`` is a finite float64 vector of length n_cols."""
    return matrix._matrix @ x


def spmv_transpose(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Return ``A.T @ x``; ``x`` is a finite float64 vector of length n_rows."""
    return matrix._transpose @ x
