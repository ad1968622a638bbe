"""Dense-vector and sparse-matrix kernels shared by the solver modules.

Vectors are finite 1-d ``numpy.float64`` arrays; index sets are sorted,
duplicate-free and in range.  ``dot`` owns the summation order of every
reduction: each dot product and norm in the package is ``dot``, which sums
pairwise in numpy's fixed order and never calls BLAS, so no iterate depends
on the BLAS thread count.  Only ``as_vector`` (the boundary's check) and
``check_csr``, the one definition of a valid matrix that the constructor and
the LIBSVM parser's blocks share, check; the products and slices trust their
inputs.

A ``SparseMatrix`` wraps one scipy matrix.  The constructor takes and
checks compressed sparse row (CSR) arrays, the layout of LIBSVM rows.  The
matrices the package derives from checked data (the parser's result, column
slices, ``datasets.scale_pixels``' scaled copy) are wrapped by one private
constructor, ``SparseMatrix._derived``, and not checked again; both
constructors apply the same layout rule below.  A
matrix of at most ``DENSE_MAX_ENTRIES`` entries (rows times columns)
multiplies and slices a dense copy that it builds on its first product or
slice, since scipy's per-call dispatch costs more than the arithmetic at
that size.  Its products are BLAS matrix-vector products (gemv), never
matrix-matrix ones; they give the same bytes on one and two BLAS threads,
which ``tests/test_reductions.py`` checks.

A larger matrix is converted to column-major (CSC) form once, when it is
wrapped, and keeps only that, whatever its shape: ``A @ x`` scatters over
its columns, ``A.T @ y`` gathers over the rows of its transposed (CSR)
view, and a column slice, which the reduced-space Hessian products and the
line searches' trial prices use, cuts it directly and stays CSC.  The
solver makes one whole-matrix ``A @ x`` per solve, at its starting point
(``objectives``): later margins are carried from products with column
slices, so the scatter's cost on wide matrices (820-860 us against CSR's
470-490 us on a 5,000 x 50,000 problem of 500,000 entries; a 2-core Xeon,
one BLAS thread) is paid once, and one held copy instead of two frees
about 6 MB per such matrix.  The CSR arrays are converted each time they
are read, and not kept.  The one exception is a matrix with more columns
than stored entries, such as a file whose feature indices run far beyond
its data: CSC would hold an offset per column, more than the entries
themselves (16 GB for 2^31 columns), so it keeps the layout it was built in.
scipy slices and multiplies either layout, in the same summation order.

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

    The constructor keeps the scipy matrix built by ``check_csr``, the one
    definition of a valid matrix; float64 values and int32 indices are not
    copied.  ``row_offsets``, ``col_indices`` and ``values`` are read-only
    views of its CSR arrays, with the index dtype scipy picked (int32
    whenever the indices fit).  The one exception is a matrix held sparse
    (more than ``DENSE_MAX_ENTRIES`` entries and no more columns than
    stored entries): it is converted to CSC and keeps only that, as the
    module docstring explains, and each read of those three arrays
    converts its CSR anew, equal to the arrays it was built from, and
    keeps none of it.  ``_derived`` wraps a scipy matrix built from checked
    data by the same rule, unchecked.

    A matrix of at most ``DENSE_MAX_ENTRIES`` entries also holds one
    C-contiguous float64 dense copy, built on its first product or slice:
    ``spmv`` is ``dense @ x``, ``spmv_transpose`` is ``y @ dense``, and
    ``column_submatrix`` returns a matrix whose dense copy is those columns
    of it.  Such a slice builds its scipy form (for ``nnz``, the CSR arrays
    and ``to_dense``) from that dense copy, so it stores no zeros.

    A larger matrix holds no dense copy.  ``column_submatrix`` slices its
    held form and returns the slice in that form, unchecked: slicing a
    validated matrix keeps its invariants.  ``spmv_transpose`` multiplies
    by a transposed view of the arrays, created on its first call and kept.
    A slice of a larger matrix stays sparse however few columns it has.

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
        self._hold(check_csr(n_rows, n_cols, offsets, cols, values))

    @classmethod
    def _derived(cls, held) -> "SparseMatrix":
        """Wrap ``held``, a scipy matrix built from checked data, without checking it again."""
        return cls.__new__(cls)._hold(held)

    def _hold(self, held) -> "SparseMatrix":
        # the layout rule: a sparse-held matrix keeps only CSC (no copy if it
        # is CSC already), unless it has more columns than stored entries
        n_rows, n_cols = held.shape
        if n_rows * n_cols > DENSE_MAX_ENTRIES and n_cols <= held.nnz:
            held = held.tocsc()
        self._matrix, self._shape = held, (n_rows, n_cols)
        return self

    @cached_property
    def _matrix(self):
        # set when wrapped; a dense slice builds it from its dense copy on first read
        return sp.csr_matrix(self._dense)

    @cached_property
    def _dense(self) -> np.ndarray | None:
        # slices set this when cut; a wrapped matrix decides by its size
        n_rows, n_cols = self._shape
        return self._matrix.toarray() if n_rows * n_cols <= DENSE_MAX_ENTRIES else None

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
        dense = self._dense
        if dense is None:
            sub = SparseMatrix._derived(self._matrix[:, indices])
            sub._dense = None  # stays sparse, however few entries it has
        else:
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
