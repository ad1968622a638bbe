"""Sparse kernels against hand values and a dense triple-loop oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import SparseMatrix, spmv, spmv_transpose
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


def test_spmv_dimension_mismatch_names_both():
    a = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match="2 columns.*length 3"):
        spmv(a, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="2 rows.*length 5"):
        spmv_transpose(a, np.ones(5))


def test_column_submatrix_index_set_checked():
    a = SparseMatrix.from_dense([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="outside"):
        a.column_submatrix([0, 3])
    with pytest.raises(ValueError, match="strictly increasing"):
        a.column_submatrix([1, 1])
    assert_allclose(a.column_submatrix([0, 2]).to_dense(), [[1.0, 3.0]])


def test_csr_invariants_enforced():
    with pytest.raises(ValueError, match="row_offsets"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix(1, 2, [0, 1], [5], [1.0])
    with pytest.raises(ValueError, match="strictly increasing within each row"):
        SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])
    # equal column indices are fine across a row boundary
    SparseMatrix(2, 3, [0, 1, 2], [1, 1], [1.0, 2.0])


def test_vectors_must_be_finite():
    a = SparseMatrix.from_dense([[1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        spmv(a, [np.nan])
