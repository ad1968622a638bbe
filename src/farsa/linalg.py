"""Dense-vector and sparse-matrix kernels shared by the solver modules.

Vectors are finite 1-d ``numpy.float64`` arrays; index sets are sorted,
duplicate-free and in range.  ``dot`` owns the summation order of every
reduction: each dot product and norm in the package is ``dot``, which sums
pairwise in numpy's fixed order and never calls BLAS, so no iterate depends
on the BLAS thread count.  Only ``as_vector`` (the boundary's check) and
``check_csr``, the one definition of a valid matrix that the constructor and
the LIBSVM parser's blocks share, check; the products and slices trust their
inputs.

The constructor takes and checks compressed sparse row (CSR) arrays, the
layout of LIBSVM rows, with ``check_csr``.  The parser's blocks pass the
same check, and the matrices the package derives from checked data (the
parser's result, column slices, ``datasets.scale_pixels``' scaled copy)
are wrapped unchecked; all of them follow the layout rule below.

A matrix of at most ``DENSE_MAX_ENTRIES`` entries (rows times columns)
keeps its checked CSR arrays and multiplies and slices a dense copy that it
builds from them on its first product or slice, since scipy's per-call
dispatch costs more than the arithmetic at that size.  It builds a scipy
matrix only when its CSR arrays are read through the public properties or
``to_dense``, so setting up and solving a small problem never calls scipy.
Its products are BLAS matrix-vector products (gemv), never matrix-matrix
ones; they give the same bytes on one and two BLAS threads, which
``tests/test_reductions.py`` checks.

A larger matrix wraps one scipy matrix.  It is converted to column-major
(CSC) form once, when it is wrapped, and keeps only that, whatever its
shape: ``A @ x`` scatters over its columns, ``A.T @ y`` gathers over the
rows of its transposed (CSR) view, and a column slice, which the
reduced-space Hessian products and the line searches' trial prices use,
cuts it directly and stays CSC.  The solver makes one whole-matrix
``A @ x`` per solve, at its starting point (``objectives``): later margins
are carried from products with column slices, so the scatter's cost on
wide matrices (820-860 us against CSR's 470-490 us on a 5,000 x 50,000
problem of 500,000 entries; a 2-core Xeon, one BLAS thread) is paid once,
and one held copy instead of two frees about 6 MB per such matrix.  The
CSR arrays are converted each time they are read, and not kept.  The one
exception is a matrix with more columns than stored entries, such as a
file whose feature indices run far beyond its data: CSC would hold an
offset per column, more than the entries themselves (16 GB for 2^31
columns), so it keeps the layout it was built in.  scipy slices and
multiplies either layout, in the same summation order.

Its transposed products use a view of the same arrays, created once per
matrix.  A slice keeps the form of the matrix it was cut from, so a slice
of a larger matrix never reaches the dense form; within one form a slice
gives bitwise the products of the same columns built through the
constructor (see ``SparseMatrix``).

``gram_inverse`` is the one matrix-matrix product and the one dense solve.
It applies the inverse of a weighted Gram matrix ``A.T diag(w) A + shift*I``
only where that is cheap, well posed and independent of the BLAS thread
count: ``A`` is held dense, has no more columns than rows (else the Gram
matrix is singular apart from the shift), and rows times columns squared is
at most ``GRAM_MAX_WORK`` = 2^18.  On OpenBLAS 0.3.31 with two threads the
Gram product gave different bytes than with one from 148 x 84 (1.04 M
multiply-adds) among the shapes tried, and the LAPACK solve from order 97;
under the bound the product does at most 2^18 multiply-adds and the order is
at most 64, since columns cubed is at most rows times columns squared.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "as_vector",
    "check_csr",
    "dot",
    "gram_inverse",
    "spmv",
    "spmv_transpose",
]

# Matrices with at most this many entries (rows times columns) are held
# dense for products and slices.
DENSE_MAX_ENTRIES = 2**15

# gram_inverse forms a Gram matrix only while rows * cols**2 is at most this.
GRAM_MAX_WORK = 2**18


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 array, checking length if given."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(a * b)`` by numpy's pairwise summation, the same on any thread count."""
    return float(np.add.reduce(a * b))


def check_csr(n_rows: int, n_cols: int, offsets, cols, values) -> None:
    """Raise ``ValueError`` naming the first rule these CSR arrays break.

    ``offsets`` has length n_rows+1, starts at 0, never decreases and ends
    at the number of ``cols`` and ``values``; every column lies in
    [0, n_cols) and strictly increases within its row; every value is
    finite.  These are scipy's rules for a CSR matrix in canonical form
    (``has_canonical_format``), and finiteness; numpy alone checks them,
    with any integer dtypes for ``offsets`` and ``cols``.
    """
    if offsets.shape != (n_rows + 1,):
        raise ValueError(
            f"row_offsets must have length n_rows+1={n_rows + 1}, "
            f"got {offsets.shape[0]}"
        )
    row_nnz = offsets[1:] - offsets[:-1]
    if offsets[0] != 0 or (row_nnz < 0).any():
        raise ValueError("row_offsets must start at 0 and be nondecreasing")
    if cols.shape != (offsets[-1],) or values.shape != cols.shape:
        raise ValueError(
            f"inconsistent nnz: row_offsets end {offsets[-1]}, "
            f"{cols.size} column indices, {values.size} values"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"column index out of range [0, {n_cols})")
    # each entry exceeds the one before it, unless it starts its row; the
    # checks above keep every non-empty row's start inside the arrays
    rising = np.empty(cols.shape, dtype=bool)
    np.greater(cols[1:], cols[:-1], out=rising[1:])
    rising[offsets[:-1][row_nnz > 0]] = True
    if not rising.all():
        raise ValueError("column indices must be strictly increasing within each row")
    if not np.isfinite(values).all():
        raise ValueError("matrix values contain non-finite entries")


def _index_array(a) -> np.ndarray:
    """int32 indices pass through uncopied; anything else becomes int64."""
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=np.int32 if a.dtype == np.int32 else np.int64)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _csr_of_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays of the nonzero entries of a 2-d array, as scipy stores them."""
    rows, cols = np.nonzero(dense)
    offsets = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=offsets[1:])
    return offsets, cols, dense[rows, cols]


def _dense_of_csr(shape, offsets, cols, values) -> np.ndarray:
    """The dense array of checked CSR arrays, bitwise scipy's ``toarray()``."""
    dense = np.zeros(shape)
    # adding to zeros, as toarray does, stores a -0.0 entry as 0.0
    dense[np.repeat(np.arange(shape[0]), np.diff(offsets)), cols] += values
    return dense


class SparseMatrix:
    """Immutable sparse matrix with CSR arrays.

    Row ``i`` stores columns ``col_indices[row_offsets[i]:row_offsets[i+1]]``
    with matching ``values``.  Column indices are strictly increasing within
    each row.

    The constructor checks its arrays with ``check_csr``, the one
    definition of a valid matrix; float64 values and int32 indices are not
    copied.  ``row_offsets``, ``col_indices`` and ``values`` are read-only
    views of the CSR arrays of its scipy form, with the index dtype scipy
    picks (int32 whenever the indices fit).

    A matrix of at most ``DENSE_MAX_ENTRIES`` entries is held dense.  It
    keeps the checked arrays, and builds a C-contiguous float64 dense copy
    from them on its first product or slice (bitwise their ``toarray()``,
    so a stored ``-0.0`` reads ``0.0``), and its scipy form only when those
    three properties or ``to_dense`` are read; ``nnz`` counts its arrays.
    ``spmv`` is ``dense @ x``, ``spmv_transpose`` is ``y @ dense``, and
    ``column_submatrix`` returns a matrix whose dense copy is those columns
    of it.  Such a slice finds its CSR arrays in that dense copy when they
    are needed, so it stores no zeros.

    A larger matrix is held sparse: the constructor builds its scipy form
    once, and converts it to CSC and keeps only that unless it has more
    columns than stored entries, as the module docstring explains.  Each
    read of the three properties then converts its CSR anew, equal to the
    arrays it was built from, and keeps none of it.  It holds no dense
    copy.  ``column_submatrix`` slices its held form and returns the slice
    in that form, unchecked: slicing a validated matrix keeps its
    invariants.  ``spmv_transpose`` multiplies by a transposed view of the
    arrays, created on its first call and kept.  A slice of a larger
    matrix stays sparse however few columns it has.

    Products are bit-stable on a given platform.  Sparse products are
    scipy's kernels: output entry ``i`` of ``A @ x`` is accumulated from 0
    over the nonzeros of row ``i`` in increasing column order, whether the
    matrix is held row-major (one running sum per row) or column-major (a
    scatter over the columns in order), and likewise for ``A.T @ y`` over
    the rows of each column.  Dense products are one gemv call on a
    C-contiguous array; a slice's dense copy is the same bytes as the dense
    copy of those columns built through the constructor.  So a column slice
    gives bitwise the same products as the same columns built through the
    constructor whenever both are held in the same form, which fails only
    for a slice of a larger matrix with at most ``DENSE_MAX_ENTRIES``
    entries.  The two forms sum in different orders and agree only to
    rounding.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        n_rows, n_cols = int(n_rows), int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        offsets, cols = _index_array(row_offsets), _index_array(col_indices)
        values = np.ascontiguousarray(values, dtype=np.float64)
        check_csr(n_rows, n_cols, offsets, cols, values)
        self._hold((n_rows, n_cols), offsets, cols, values)

    @classmethod
    def _checked(cls, shape, offsets, cols, values) -> "SparseMatrix":
        """Wrap CSR arrays that passed ``check_csr``, without checking them again."""
        return cls.__new__(cls)._hold(shape, offsets, cols, values)

    def _hold(self, shape, offsets, cols, values) -> "SparseMatrix":
        # the layout rule: a small matrix keeps its CSR arrays; a larger one
        # keeps only the CSC form of its scipy matrix, unless it has more
        # columns than stored entries
        n_rows, n_cols = self._shape = shape
        if n_rows * n_cols <= DENSE_MAX_ENTRIES:
            self._arrays = offsets, cols, values
            return self
        held = sp.csr_matrix((values, cols, offsets), shape=shape)
        self._matrix = held.tocsc() if n_cols <= held.nnz else held
        self._arrays = self._dense = None
        return self

    @classmethod
    def _sparse(cls, held) -> "SparseMatrix":
        """Wrap ``held``, a scipy matrix cut or computed from a sparse-held one, as it is."""
        matrix = cls.__new__(cls)
        matrix._shape, matrix._matrix = held.shape, held
        matrix._arrays = matrix._dense = None
        return matrix

    # Each matrix is made with one of _arrays (a small matrix), _dense (a
    # dense slice) or _matrix (a sparse-held matrix, which sets the other
    # two to None); the properties below derive the rest on first read.

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # a dense slice finds its CSR arrays in its dense copy
        return _csr_of_dense(self._dense)

    @cached_property
    def _dense(self) -> np.ndarray:
        return _dense_of_csr(self._shape, *self._arrays)

    @cached_property
    def _matrix(self):
        offsets, cols, values = self._arrays
        return sp.csr_matrix((values, cols, offsets), shape=self._shape)

    @cached_property
    def _transpose(self):
        return self._matrix.T

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        arrays = self._arrays
        return self._matrix.nnz if arrays is None else arrays[1].size

    @property
    def row_offsets(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().indptr)

    @property
    def col_indices(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().indices)

    @property
    def values(self) -> np.ndarray:
        return _read_only(self._matrix.tocsr().data)

    def _row_major(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR arrays as held, or converted anew (and not kept) if held as CSC."""
        if self._arrays is not None:
            return self._arrays
        csr = self._matrix.tocsr()
        return csr.indptr, csr.indices, csr.data

    @property
    def _held_values(self) -> np.ndarray:
        """The stored values in the order they are held (column-major if CSC)."""
        return self._matrix.data if self._arrays is None else self._arrays[2]

    def _with_values(self, values: np.ndarray) -> "SparseMatrix":
        """The same pattern, held the same way, with ``values`` in its held order, unchecked."""
        if self._arrays is not None:
            offsets, cols, _ = self._arrays
            return SparseMatrix._checked(self._shape, offsets, cols, values)
        held = self._matrix
        scaled = type(held)((values, held.indices, held.indptr), shape=held.shape)
        return SparseMatrix._sparse(scaled)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        return cls(*a.shape, *_csr_of_dense(a))

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def column_submatrix(self, indices) -> "SparseMatrix":
        """Restrict to ``indices``: sorted, duplicate-free and in range, unchecked."""
        dense = self._dense
        if dense is None:
            return SparseMatrix._sparse(self._matrix[:, indices])
        sub = SparseMatrix.__new__(SparseMatrix)
        sub._shape, sub._dense = (self._shape[0], len(indices)), dense.take(indices, axis=1)
        return sub

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def spmv(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Return ``A @ x``; ``x`` is a finite float64 vector of length n_cols."""
    dense = matrix._dense
    return matrix._matrix @ x if dense is None else dense @ x


def spmv_transpose(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Return ``A.T @ x``; ``x`` is a finite float64 vector of length n_rows."""
    dense = matrix._dense
    return matrix._transpose @ x if dense is None else x @ dense


def gram_inverse(
    matrix: SparseMatrix, weights: np.ndarray, shift: float
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The map ``b -> (A.T diag(weights) A + shift*I)^-1 b``, or None.

    None unless ``A`` is held dense, has no more columns than rows, and
    rows * cols**2 <= ``GRAM_MAX_WORK`` (see the module docstring).  The
    Gram matrix is formed once, by one BLAS matrix-matrix product; each
    call of the map is one LAPACK solve (``numpy.linalg.solve``).
    """
    dense = matrix._dense
    n_rows, n_cols = matrix.shape
    if dense is None or n_cols > n_rows or n_rows * n_cols * n_cols > GRAM_MAX_WORK:
        return None
    gram = (dense.T * weights) @ dense
    gram.flat[:: n_cols + 1] += shift
    return partial(np.linalg.solve, gram)
