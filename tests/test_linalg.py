"""Sparse kernels against hand values and a dense triple-loop oracle."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from farsa import LogisticObjective, SolverConfig, SparseMatrix, linalg, solve
from farsa.linalg import (
    DENSE_COPIES_KEPT,
    DENSE_MAX_ENTRIES,
    check_csr,
    gram_inverse,
    spmv,
    spmv_transpose,
)
from reference import dense_matvec, dense_matvec_transpose, random_sparse_dense


def test_spmv_identity():
    a = SparseMatrix.from_dense(np.eye(2))
    assert_allclose(spmv(a, [3.0, -1.0]), [3.0, -1.0])


def test_spmv_hand_expansion():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    assert_allclose(spmv(a, [1.0, 1.0]), [3.0, 3.0])


def test_spmv_transpose_identity():
    a = SparseMatrix.from_dense(np.eye(3))
    x = np.array([1.0, -2.0, 5.0])
    assert_allclose(spmv_transpose(a, x), x)


def test_spmv_transpose_hand_expansion():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    assert_allclose(spmv_transpose(a, [1.0, 1.0]), [1.0, 5.0])


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(7)
    dense = random_sparse_dense(rng, 50, 30)
    a = SparseMatrix.from_dense(dense)
    x = rng.normal(size=30)
    expected = dense_matvec(dense, x)
    assert_allclose(spmv(a, x), expected, rtol=1e-14, atol=1e-14)


def test_spmv_transpose_matches_dense_oracle():
    rng = np.random.default_rng(8)
    dense = random_sparse_dense(rng, 40, 25)
    a = SparseMatrix.from_dense(dense)
    y = rng.normal(size=40)
    expected = dense_matvec_transpose(dense, y)
    assert_allclose(spmv_transpose(a, y), expected, rtol=1e-14, atol=1e-14)


def test_adjoint_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dense = random_sparse_dense(rng, 17, 11)
        a = SparseMatrix.from_dense(dense)
        x = rng.normal(size=11)
        y = rng.normal(size=17)
        lhs = spmv(a, x) @ y
        rhs = x @ spmv_transpose(a, y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_spmv_dimension_mismatch_raises():
    # the kernels do not check lengths; scipy's and numpy's products do
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValueError):
        spmv(a, np.ones(3))
    with pytest.raises(ValueError):
        spmv_transpose(a, np.ones(5))


NONDECREASING = "row_offsets must start at 0 and be nondecreasing"
INCREASING = "column indices must be strictly increasing within each row"
NON_FINITE = "matrix values contain non-finite entries"


def test_csr_invariants_enforced():
    cases = [
        (lambda: SparseMatrix(-1, 2, [], [], []), "matrix dimensions must be nonnegative"),
        (lambda: SparseMatrix(2, -3, [0, 0, 0], [], []), "matrix dimensions must be nonnegative"),
        (
            lambda: SparseMatrix(2, 2, [0, 1], [0], [1.0]),
            "row_offsets must have length n_rows+1=3, got 2",
        ),
        (lambda: SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0]), NONDECREASING),
        (lambda: SparseMatrix(1, 2, [1, 1], [], []), NONDECREASING),
        # runs past nnz mid-array: must raise before any scan reads cols[0:5]
        (lambda: SparseMatrix(2, 3, [0, 5, 2], [0, 1], [1.0, 2.0]), NONDECREASING),
        (
            lambda: SparseMatrix(1, 3, [0, 1], [0, 1], [1.0, 2.0]),
            "inconsistent nnz: row_offsets end 1, 2 column indices, 2 values",
        ),
        (
            lambda: SparseMatrix(1, 3, [0, 2], [0, 1], [1.0]),
            "inconsistent nnz: row_offsets end 2, 2 column indices, 1 values",
        ),
        (lambda: SparseMatrix(1, 2, [0, 1], [5], [1.0]), "column index out of range [0, 2)"),
        (lambda: SparseMatrix(1, 2, [0, 1], [-1], [1.0]), "column index out of range [0, 2)"),
        (lambda: SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0]), INCREASING),
        (lambda: SparseMatrix(2, 3, [0, 1, 3], [0, 2, 1], [1.0, 2.0, 3.0]), INCREASING),
        (lambda: SparseMatrix(1, 3, [0, 2], [2, 1], [np.nan, 2.0]), INCREASING),
        (lambda: SparseMatrix(2, 3, [0, 1, 2], [0, 2], [1.0, np.inf]), NON_FINITE),
        (lambda: SparseMatrix.from_dense([1.0, 2.0, 3.0]), "expected a 2-d array, got shape (3,)"),
        (lambda: SparseMatrix.from_dense([[1.0, 0.0], [0.0, np.nan]]), NON_FINITE),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message
    # equal column indices are fine across a row boundary
    SparseMatrix(2, 3, [0, 1, 2], [1, 1], [1.0, 2.0])


def scipy_verdict(n_rows, n_cols, offsets, cols, values):
    """The first rule broken, as scipy defines a canonical CSR matrix."""
    if offsets.shape != (n_rows + 1,):
        return f"row_offsets must have length n_rows+1={n_rows + 1}, got {offsets.shape[0]}"
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        return NONDECREASING
    if offsets[-1] != cols.shape[0] or cols.shape != values.shape:
        return (
            f"inconsistent nnz: row_offsets end {offsets[-1]}, "
            f"{cols.shape[0]} column indices, {values.shape[0]} values"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        return f"column index out of range [0, {n_cols})"
    # scipy's scan reads cols[offsets[i]:offsets[i+1]] unchecked, so it runs
    # only on arrays that passed the rules above
    if not sp.csr_matrix((values, cols, offsets), shape=(n_rows, n_cols)).has_canonical_format:
        return INCREASING
    if not np.all(np.isfinite(values)):
        return NON_FINITE
    return None


def check_verdict(*args):
    try:
        check_csr(*args)
    except ValueError as error:
        return str(error)
    return None


def _random_csr(rng):
    """Valid CSR arrays of random shape, often with leading, inner and
    trailing empty rows; a row's first column is often at or below the
    previous row's last."""
    n_rows, n_cols = int(rng.integers(0, 7)), int(rng.integers(1, 6))
    full = rng.random() < 0.8
    rows = [
        np.sort(rng.choice(n_cols, size=int(rng.integers(0, n_cols + 1)), replace=False))
        if (full and 0 < i < n_rows - 1) or rng.random() < 0.4
        else np.array([], dtype=np.int64)
        for i in range(n_rows)
    ]
    offsets = np.concatenate(([0], np.cumsum([r.size for r in rows], dtype=np.int64)))
    cols = np.concatenate(rows + [np.array([], dtype=np.int64)]).astype(np.int64)
    return n_rows, n_cols, offsets, cols, rng.normal(size=cols.size)


def _inject(rng, n_rows, n_cols, offsets, cols, values):
    """One fault, or none, in copies of the arrays; the fault's name."""
    offsets, cols, values = offsets.copy(), cols.copy(), values.copy()
    within = [k for i in range(n_rows) for k in range(offsets[i], offsets[i + 1] - 1)]
    fault = str(rng.choice([
        "none", "repeat", "descend", "offsets_end_past", "offsets_mid_past",
        "offsets_short", "offsets_start", "negative", "n_cols", "nan", "inf",
    ]))  # fmt: skip
    if fault in ("repeat", "descend") and within:
        k = int(rng.choice(within))
        if fault == "repeat":
            cols[k + 1] = cols[k]
        else:
            cols[k], cols[k + 1] = cols[k + 1], cols[k]
    elif fault == "offsets_end_past":
        offsets[-1] += int(rng.integers(1, 3))
    elif fault == "offsets_mid_past" and n_rows > 1:
        offsets[int(rng.integers(1, n_rows))] = offsets[-1] + 1
    elif fault == "offsets_short":
        offsets = offsets[:-1]
    elif fault == "offsets_start":
        offsets[0] = 1
    elif fault in ("negative", "n_cols") and cols.size:
        cols[int(rng.integers(cols.size))] = -1 if fault == "negative" else n_cols
    elif fault in ("nan", "inf") and values.size:
        values[int(rng.integers(values.size))] = np.nan if fault == "nan" else -np.inf
    else:
        fault = "none"
    return fault, offsets, cols, values


def test_check_csr_agrees_with_scipy_definition():
    # the numpy check accepts and rejects exactly what the scipy definition
    # does, naming the same first rule, for every index dtype pairing
    rng = np.random.default_rng(23)
    dtypes = [
        (np.int32, np.int32), (np.int64, np.int64), (np.int32, np.int64), (np.int64, np.int32),
    ]  # fmt: skip
    seen = set()
    valid_row_starts = 0
    for _ in range(3000):
        n_rows, n_cols, offsets, cols, values = _random_csr(rng)
        fault, offsets, cols, values = _inject(rng, n_rows, n_cols, offsets, cols, values)
        offset_dtype, col_dtype = dtypes[int(rng.integers(len(dtypes)))]
        args = (n_rows, n_cols, offsets.astype(offset_dtype), cols.astype(col_dtype), values)
        want = scipy_verdict(*args)
        assert check_verdict(*args) == want, (fault, args)
        seen.add((fault, want is None))
        if want is None and n_rows and offsets[-1]:
            row_nnz = np.diff(offsets)
            starts = offsets[1:-1][(row_nnz[1:] > 0) & (offsets[1:-1] > 0)]
            valid_row_starts += int(np.any(cols[starts] <= cols[starts - 1]))
    # every fault was drawn and rejected, and valid arrays were accepted
    faults = ["repeat", "descend", "offsets_end_past", "offsets_mid_past", "offsets_short",
              "offsets_start", "negative", "n_cols", "nan", "inf"]  # fmt: skip
    assert seen == {("none", True)} | {(f, False) for f in faults}
    assert valid_row_starts > 100


def test_check_csr_edge_cases():
    def csr(offsets, cols, values, dtype=np.int64):
        return np.array(offsets, dtype=dtype), np.array(cols, dtype=dtype), np.array(values)

    cases = [
        # no rows; no stored entries; leading, inner and trailing empty rows
        (0, 3, csr([0], [], []), None),
        (3, 3, csr([0, 0, 0, 0], [], []), None),
        (4, 3, csr([0, 0, 2, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]), None),
        (4, 3, csr([0, 0, 2, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], np.int32), None),
        # the first column of a row at or below the previous row's last
        (2, 3, csr([0, 2, 3], [1, 2, 2], [1.0, 2.0, 3.0]), None),
        (2, 3, csr([0, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0]), None),
        # a repeated column and a descending pair, after empty rows or before them
        (3, 3, csr([0, 0, 2, 2], [1, 1], [1.0, 2.0]), INCREASING),
        (3, 3, csr([0, 2, 2, 2], [2, 1], [1.0, 2.0]), INCREASING),
        (2, 3, csr([0, 0, 3], [0, 2, 2], [1.0, 2.0, 3.0]), INCREASING),
        # offsets[-1] past the stored entries; then the range and finite rules
        (
            1, 3, csr([0, 3], [0, 1], [1.0, 2.0]),
            "inconsistent nnz: row_offsets end 3, 2 column indices, 2 values",
        ),
        (2, 3, csr([0, 1, 1], [0], [np.nan]), NON_FINITE),
        (1, 3, csr([0, 1], [3], [1.0]), "column index out of range [0, 3)"),
        (1, 3, csr([0, 1], [-1], [1.0]), "column index out of range [0, 3)"),
        (1, 3, csr([0, 2], [0, 1], [1.0, np.inf]), NON_FINITE),
    ]  # fmt: skip
    for n_rows, n_cols, arrays, message in cases:
        assert scipy_verdict(n_rows, n_cols, *arrays) == message
        assert check_verdict(n_rows, n_cols, *arrays) == message
        # mixed index dtypes give the same verdict
        offsets, cols, values = arrays
        assert check_verdict(n_rows, n_cols, offsets.astype(np.int32), cols, values) == message
        assert check_verdict(n_rows, n_cols, offsets, cols.astype(np.int32), values) == message


def test_small_matrix_builds_no_scipy_form(monkeypatch):
    rng = np.random.default_rng(24)
    m, n = 60, 12
    csr = _small_with_stored_zeros(rng, m, n)
    zeros = np.flatnonzero(csr.data == 0.0)
    assert zeros.size >= 2
    csr.data[zeros[::2]] = -0.0
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    # setup and solves call nothing of scipy
    monkeypatch.setattr(linalg, "sp", None)
    a = SparseMatrix(m, n, csr.indptr, csr.indices, csr.data)
    assert a.nnz == csr.nnz
    report = solve(LogisticObjective(a, labels), SolverConfig(lam=0.5))
    monkeypatch.undo()
    assert report.iterations > 0 and "_matrix" not in vars(a)
    # the dense copy is bitwise scipy's, stored zeros of either sign included
    dense = vars(a)["_dense"]
    assert dense.flags.c_contiguous and dense.tobytes() == csr.toarray().tobytes()
    rows = np.repeat(np.arange(m), np.diff(csr.indptr))
    assert not np.signbit(dense[rows[zeros], csr.indices[zeros]]).any()

    # once newer matrices have built their copies, a's is dropped; it is
    # rebuilt, without scipy, to the same bytes and the same results
    x, y, weights = rng.normal(size=n), rng.normal(size=m), rng.random(m)
    idx = np.flatnonzero(rng.random(n) < 0.5)

    def results(matrix):
        sub = matrix.column_submatrix(idx)
        return [
            spmv(matrix, x), spmv_transpose(matrix, y), sub._dense,
            spmv(sub, x[idx]), spmv_transpose(sub, y),
            gram_inverse(matrix, weights, 1e-8)(x), gram_inverse(sub, weights, 1e-8)(x[idx]),
        ]  # fmt: skip

    held = results(a)
    for _ in range(DENSE_COPIES_KEPT):
        spmv(SparseMatrix.from_dense(np.eye(3)), np.ones(3))
    assert "_dense" not in vars(a)
    monkeypatch.setattr(linalg, "sp", None)
    rebuilt = results(a)
    assert vars(a)["_dense"].tobytes() == dense.tobytes()
    monkeypatch.undo()
    assert [r.tobytes() for r in rebuilt] == [r.tobytes() for r in held]
    assert "_matrix" not in vars(a)


def test_only_the_newest_small_matrices_keep_their_dense_copy():
    rng = np.random.default_rng(26)
    matrices = [
        SparseMatrix.from_dense(random_sparse_dense(rng, 9, 7)) for _ in range(DENSE_COPIES_KEPT + 2)
    ]
    products = [spmv(a, np.ones(7)) for a in matrices]
    assert ["_dense" in vars(a) for a in matrices] == [False] * 2 + [True] * DENSE_COPIES_KEPT
    # products and slices reuse the held copy; a slice keeps its own
    newest = matrices[-1]
    held = vars(newest)["_dense"]
    sub = newest.column_submatrix(np.arange(3))
    spmv_transpose(newest, np.ones(9))
    assert vars(newest)["_dense"] is held
    # the holders are weak references: a holder its caller drops is freed
    alive = weakref.ref(newest)
    del matrices[-1], newest, held
    gc.collect()
    assert alive() is None
    # the two oldest rebuild their copies, and the two oldest holders drop theirs
    assert [spmv(a, np.ones(7)).tobytes() for a in matrices[:2]] == [
        product.tobytes() for product in products[:2]
    ]
    assert ["_dense" in vars(a) for a in matrices[:4]] == [True, True, False, False]
    assert sub._dense.shape == (9, 3) and "_dense" in vars(sub)


def test_threads_sharing_the_bound_get_the_same_products():
    # more threads than cores, each cycling through more matrices than the
    # bound keeps, with frequent thread switches: every product stays
    # bitwise the single-threaded one, and at most the bound's number of
    # matrices hold a copy at the end
    rng = np.random.default_rng(29)
    dense = [random_sparse_dense(rng, 11, 6) for _ in range(3 * DENSE_COPIES_KEPT)]
    x = rng.normal(size=6)
    want = [(d @ x).tobytes() for d in dense]
    groups = [[SparseMatrix.from_dense(d) for d in dense] for _ in range(3)]
    wrong = []

    def work(matrices):
        for _ in range(50):
            for a, expected in zip(matrices, want):
                if spmv(a, x).tobytes() != expected:
                    wrong.append(expected)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(group,)) for group in groups]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    holding = sum("_dense" in vars(a) for group in groups for a in group)
    assert 1 <= holding <= DENSE_COPIES_KEPT


@pytest.mark.parametrize("shape", [(7, 5), (6, 0), (0, 4), (0, 0), (1, 1)])
def test_dense_of_csr_is_scipy_toarray(shape):
    # stored zeros of either sign read 0.0, as in toarray; empty rows and
    # zero-size shapes included
    rng = np.random.default_rng(27)
    dense = random_sparse_dense(rng, *shape, density=0.5)
    if shape[0] > 1:
        dense[1] = 0.0
    csr = sp.csr_matrix(dense)
    csr.data[::2] = 0.0
    csr.data[::4] = -0.0
    got = linalg._dense_of_csr(shape, csr.indptr, csr.indices, csr.data)
    assert got.shape == shape and got.flags.c_contiguous
    assert got.tobytes() == csr.toarray().tobytes()


def test_dense_slice_counts_nnz_without_csr_arrays():
    rng = np.random.default_rng(28)
    csr = _small_with_stored_zeros(rng, 30, 12)
    a = SparseMatrix(30, 12, csr.indptr, csr.indices, csr.data)
    sub = a.column_submatrix(np.arange(0, 12, 2))
    count = sub.nnz
    assert "_arrays" not in vars(sub)
    assert count == sub._arrays[1].size == sp.csr_matrix(csr.toarray()[:, ::2]).nnz


def test_small_matrix_reads_back_scipy_arrays():
    # the CSR properties read the scipy form, built on first read: its values
    # and the index dtype scipy picks, for each pairing of index dtypes
    rng = np.random.default_rng(25)
    for offset_dtype, col_dtype in [
        (np.int32, np.int32), (np.int64, np.int64), (np.int32, np.int64), (np.int64, np.int32),
    ]:  # fmt: skip
        m, n = rng.integers(1, 80, size=2)
        csr = _small_with_stored_zeros(rng, m, n)
        offsets, cols = csr.indptr.astype(offset_dtype), csr.indices.astype(col_dtype)
        a = SparseMatrix(m, n, offsets, cols, csr.data)
        assert a.nnz == csr.nnz and "_matrix" not in vars(a)
        want = sp.csr_matrix((csr.data, cols, offsets), shape=(m, n))
        for got, expected in [
            (a.row_offsets, want.indptr), (a.col_indices, want.indices), (a.values, want.data),
        ]:  # fmt: skip
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert a.row_offsets.dtype == a.col_indices.dtype == np.int32
        assert a._dense.tobytes() == a.to_dense().tobytes() == csr.toarray().tobytes()


def _dense_with_empty_rows(rng, m, n):
    dense = random_sparse_dense(rng, m, n, density=0.3)
    dense[rng.random(m) < 0.3] = 0.0
    dense[0] = 0.0
    return dense


def _index_sets(rng, n):
    return [
        np.array([], dtype=np.int64),
        np.array([n // 2]),
        np.arange(n),
        np.flatnonzero(rng.random(n) < 0.5),
    ]


def test_column_submatrix_matches_dense_slice():
    rng = np.random.default_rng(10)
    for m, n in [(12, 9), (1, 5), (30, 17)]:
        dense = _dense_with_empty_rows(rng, m, n)
        a = SparseMatrix.from_dense(dense)
        for idx in _index_sets(rng, n):
            sub = a.column_submatrix(idx)
            assert sub.shape == (m, idx.size)
            assert np.array_equal(sub.to_dense(), dense[:, idx])
            # the slice is built unchecked; its CSR arrays must pass the checks
            rebuilt = SparseMatrix(m, idx.size, sub.row_offsets, sub.col_indices, sub.values)
            assert rebuilt.nnz == sub.nnz
            assert np.array_equal(rebuilt.to_dense(), dense[:, idx])


def test_column_submatrix_products_bitwise_equal_to_built_matrix():
    # small matrices: a slice's dense copy is the same bytes as the built
    # matrix's, and both take one gemv.  Above DENSE_MAX_ENTRIES (every
    # nonempty slice of the last shape): a slice multiplies in column-major
    # form, a built matrix in row-major form, and both sum each output entry
    # in the same order.
    rng = np.random.default_rng(11)
    shapes = [tuple(rng.integers(1, 40, size=2)) for _ in range(10)]
    for m, n in shapes + [(DENSE_MAX_ENTRIES + 1, 4)]:
        dense = _dense_with_empty_rows(rng, m, n)
        a = SparseMatrix.from_dense(dense)
        for idx in _index_sets(rng, n):
            sub = a.column_submatrix(idx)
            built = SparseMatrix.from_dense(dense[:, idx])
            v = rng.normal(size=idx.size)
            y = rng.normal(size=m)
            assert np.array_equal(spmv(sub, v), spmv(built, v))
            assert np.array_equal(spmv_transpose(sub, y), spmv_transpose(built, y))


def test_products_and_slices_unchanged_by_cached_forms():
    rng = np.random.default_rng(12)
    dense = _dense_with_empty_rows(rng, 25, 14)
    y = rng.normal(size=25)
    idx = np.flatnonzero(rng.random(14) < 0.5)
    v = rng.normal(size=idx.size)

    first = SparseMatrix.from_dense(dense)
    transposed = spmv_transpose(first, y)
    sub = first.column_submatrix(idx)
    sub_products = (spmv(sub, v), spmv_transpose(sub, y))

    second = SparseMatrix.from_dense(dense)
    for _ in range(2):
        sub = second.column_submatrix(idx)
        assert np.array_equal(spmv(sub, v), sub_products[0])
        assert np.array_equal(spmv_transpose(sub, y), sub_products[1])
        assert np.array_equal(spmv_transpose(second, y), transposed)
        assert np.array_equal(sub.column_submatrix(np.arange(idx.size)).to_dense(), dense[:, idx])


def test_int32_inputs_are_shared_not_copied():
    indptr = np.array([0, 2, 2, 3], dtype=np.int32)
    indices = np.array([0, 2, 1], dtype=np.int32)
    data = np.array([1.0, -2.0, 3.0])
    a = SparseMatrix(3, 3, indptr, indices, data)
    assert np.shares_memory(a.row_offsets, indptr)
    assert np.shares_memory(a.col_indices, indices)
    assert np.shares_memory(a.values, data)
    assert a.col_indices.dtype == np.int32


def test_matrix_arrays_are_read_only_views():
    a = SparseMatrix(2, 3, [0, 1, 3], [1, 0, 2], [4.0, 5.0, 6.0])
    for array in (a.row_offsets, a.col_indices, a.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert a.row_offsets.tolist() == [0, 1, 3]
    assert a.col_indices.tolist() == [1, 0, 2]
    assert a.values.tolist() == [4.0, 5.0, 6.0]


def _small_with_stored_zeros(rng, m, n):
    """A matrix of random shape with empty rows and columns and stored zeros."""
    dense = _dense_with_empty_rows(rng, m, n)
    dense[:, rng.random(n) < 0.2] = 0.0
    csr = sp.csr_matrix(dense)
    csr.data[rng.random(csr.nnz) < 0.1] = 0.0
    return csr


def test_dense_products_match_scipy_to_rounding():
    # gemv sums in another order than scipy's kernels: compare each entry
    # against the sum of the magnitudes of its terms
    rng = np.random.default_rng(13)
    for _ in range(30):
        m, n = rng.integers(1, 120, size=2)
        csr = _small_with_stored_zeros(rng, m, n)
        a = SparseMatrix(m, n, csr.indptr, csr.indices, csr.data)
        x, y = rng.normal(size=n), rng.normal(size=m)
        magnitude = np.abs(csr.toarray())
        assert np.all(np.abs(spmv(a, x) - csr @ x) <= 1e-13 * (magnitude @ np.abs(x)))
        assert np.all(
            np.abs(spmv_transpose(a, y) - csr.T @ y) <= 1e-13 * (np.abs(y) @ magnitude)
        )


def test_dense_slices_read_back_their_columns():
    # a dense slice, and a slice of it, read back as the same columns built
    # through the constructor: the source's stored zeros are not stored, and
    # the products are bitwise equal
    rng = np.random.default_rng(14)
    for _ in range(10):
        m, n = rng.integers(1, 60, size=2)
        csr = _small_with_stored_zeros(rng, m, n)
        a = SparseMatrix(m, n, csr.indptr, csr.indices, csr.data)
        for idx in _index_sets(rng, n):
            sub = a.column_submatrix(idx)
            inner = np.flatnonzero(rng.random(idx.size) < 0.5)
            for got, columns in [(sub, idx), (sub.column_submatrix(inner), idx[inner])]:
                want = sp.csr_matrix(csr.toarray()[:, columns])
                built = _built(want)
                assert got.shape == want.shape
                assert got.nnz == want.nnz
                assert np.array_equal(got.to_dense(), want.toarray())
                assert np.array_equal(got.row_offsets, want.indptr)
                assert np.array_equal(got.col_indices, want.indices)
                assert np.array_equal(got.values, want.data)
                x, y = rng.normal(size=columns.size), rng.normal(size=m)
                assert spmv(got, x).tobytes() == spmv(built, x).tobytes()
                assert spmv_transpose(got, y).tobytes() == spmv_transpose(built, y).tobytes()


def test_matrix_above_threshold_keeps_scipy_products():
    rng = np.random.default_rng(15)
    m, n = 99, 331
    assert m * n == DENSE_MAX_ENTRIES + 1
    csr = sp.csr_matrix(random_sparse_dense(rng, m, n, density=0.3))
    a = SparseMatrix(m, n, csr.indptr, csr.indices, csr.data)
    x, y = rng.normal(size=n), rng.normal(size=m)
    assert np.array_equal(spmv(a, x), csr @ x)
    assert np.array_equal(spmv_transpose(a, y), csr.T @ y)
    # a slice of a larger matrix stays sparse, however few columns it has
    idx = np.array([3, 40, 41, 300])
    sub, csc = a.column_submatrix(idx), csr.tocsc()[:, idx]
    assert np.array_equal(spmv(sub, x[idx]), csc @ x[idx])
    assert np.array_equal(spmv_transpose(sub, y), csc.T @ y)
    assert a._dense is None and sub._dense is None


def test_dense_copy_built_on_first_product_and_reused():
    rng = np.random.default_rng(16)
    dense = random_sparse_dense(rng, 256, 128)
    assert dense.size == DENSE_MAX_ENTRIES
    a = SparseMatrix.from_dense(dense)
    assert a.shape == (256, 128) and "_dense" not in vars(a)
    spmv(a, rng.normal(size=128))
    held = vars(a)["_dense"]
    assert held.flags.c_contiguous and np.array_equal(held, dense)
    spmv_transpose(a, rng.normal(size=256))
    sub = a.column_submatrix(np.arange(0, 128, 3))
    assert vars(a)["_dense"] is held
    assert sub._dense.flags.c_contiguous
    # the dense copy replaces the column-major copy and the transposed view,
    # and a slice builds its scipy form only when read
    assert not {"_csc", "_transpose"} & set(vars(a))
    assert "_matrix" not in vars(sub)
    spmv(sub, rng.normal(size=sub.n_cols))
    assert "_matrix" not in vars(sub)


def _tall_with_stored_zeros(rng):
    """A sparse-held matrix with at least as many rows as columns, empty rows
    and columns, and stored zeros."""
    n = int(rng.integers(40, 200))
    m = int(rng.integers(max(n, DENSE_MAX_ENTRIES // n + 1), 3 * DENSE_MAX_ENTRIES // n))
    return _small_with_stored_zeros(rng, m, n)


def _built(csr):
    return SparseMatrix(*csr.shape, csr.indptr, csr.indices, csr.data)


def test_tall_matrix_holds_one_column_major_copy():
    rng = np.random.default_rng(17)
    csr = _tall_with_stored_zeros(rng)
    a = _built(csr)
    held = a._matrix
    assert held.format == "csc" and a._dense is None
    spmv(a, rng.normal(size=a.n_cols))
    spmv_transpose(a, rng.normal(size=a.n_rows))
    idx = np.flatnonzero(rng.random(a.n_cols) < 0.1)
    tracemalloc.start()
    sub = a.column_submatrix(idx)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the slice cuts the held matrix itself: no second full copy, before or
    # during the slice, and the transposed view shares its arrays
    assert a._matrix is held
    assert np.shares_memory(a._transpose.data, held.data)
    assert not {"_csr", "_csc"} & set(vars(a))
    full = held.data.nbytes + held.indices.nbytes
    assert peak < full / 2, f"peak {peak} B against {full} B held"
    assert np.array_equal(sub.to_dense(), csr.toarray()[:, idx])


def test_tall_products_equal_row_major_products_bitwise():
    rng = np.random.default_rng(18)
    shapes = [_tall_with_stored_zeros(rng) for _ in range(8)]
    square = _small_with_stored_zeros(rng, 182, 182)
    assert square.shape[0] * square.shape[1] > DENSE_MAX_ENTRIES
    for csr in shapes + [square]:
        a = _built(csr)
        assert a._matrix.format == "csc"
        x, y = rng.normal(size=a.n_cols), rng.normal(size=a.n_rows)
        assert spmv(a, x).tobytes() == (csr @ x).tobytes()
        assert spmv_transpose(a, y).tobytes() == (csr.T @ y).tobytes()


def test_wide_matrix_holds_one_column_major_copy_and_reads_back_its_arrays():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(300, 600))
        m = int(rng.integers(DENSE_MAX_ENTRIES // n + 1, n // 2))
        csr = _small_with_stored_zeros(rng, m, n)
        assert csr.nnz >= n
        a = _built(csr)
        assert a._matrix.format == "csc" and a._dense is None
        assert not {"_csr", "_csc"} & set(vars(a))
        # each read converts anew and equals the arrays it was built from
        assert np.array_equal(a.row_offsets, csr.indptr)
        assert np.array_equal(a.col_indices, csr.indices)
        assert a.values.tobytes() == csr.data.tobytes()
        assert a.nnz == csr.nnz and a._matrix.format == "csc"
        with pytest.raises(ValueError, match="read-only"):
            a.col_indices[0] = 1
        x, y = rng.normal(size=n), rng.normal(size=m)
        assert spmv(a, x).tobytes() == (csr @ x).tobytes()
        assert spmv_transpose(a, y).tobytes() == (csr.T @ y).tobytes()


def test_tall_matrix_reads_back_the_arrays_it_was_built_from():
    rng = np.random.default_rng(19)
    for _ in range(5):
        csr = _tall_with_stored_zeros(rng)
        a = _built(csr)
        assert a._matrix.format == "csc" and "_csr" not in vars(a)
        assert np.array_equal(a.row_offsets, csr.indptr)
        assert np.array_equal(a.col_indices, csr.indices)
        assert np.array_equal(a.values, csr.data)
        assert a.nnz == csr.nnz
        with pytest.raises(ValueError, match="read-only"):
            a.values[0] = 1.0


def test_held_form_follows_the_shape():
    # sparse-held: every shape keeps one CSC, and its slices stay CSC, unless
    # it has more columns than stored entries; dense-held ones a dense copy
    # of either shape, whatever the sparse layout
    rng = np.random.default_rng(20)
    for (m, n), form in [
        ((331, 99), "csc"),
        ((182, 182), "csc"),
        ((DENSE_MAX_ENTRIES + 1, 1), "csc"),
        ((99, 331), "csc"),
        ((1, DENSE_MAX_ENTRIES + 1), "csr"),
        ((256, 128), "dense"),
        ((128, 256), "dense"),
    ]:
        csr = _small_with_stored_zeros(rng, m, n)
        a = _built(csr)
        sub = a.column_submatrix(np.arange(0, n, 2))
        if form == "dense":
            assert a._dense is not None and a._matrix.format == "csr"
            assert "_transpose" not in vars(a)
        else:
            assert (csr.nnz < n) == (form == "csr")
            assert a._dense is None and a._matrix.format == form
            assert sub._matrix.format == form
            assert not {"_csr", "_csc"} & set(vars(a))
