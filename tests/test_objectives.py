"""Objective oracles against finite differences and closed forms."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import LogisticObjective, SparseMatrix, objectives
from problems import QuadraticObjective
from reference import fd_gradient, fd_hessian, logistic_value_naive, random_sparse_dense


def random_logistic(rng, m, n, density=0.6, scale=1.0):
    dense = random_sparse_dense(rng, m, n, density=density, scale=scale)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return LogisticObjective(SparseMatrix.from_dense(dense), labels), dense, labels


class TestLogisticValue:
    def test_zero_point_gives_log2_per_sample(self):
        rng = np.random.default_rng(0)
        obj, _, _ = random_logistic(rng, 23, 7)
        assert obj.value(np.zeros(7)) == pytest.approx(23 * math.log(2.0), rel=1e-14)

    def test_large_margin_does_not_overflow(self):
        obj = LogisticObjective(SparseMatrix.from_dense([[1.0]]), [1.0])
        got = obj.value(np.array([100.0]))
        with mpmath.workdps(60):
            expected = float(mpmath.log(1 + mpmath.exp(-100)))
        assert got == pytest.approx(expected, rel=1e-13)
        assert got < 1e-40

    def test_matches_naive_formula_at_moderate_margins(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            obj, dense, labels = random_logistic(rng, 15, 6)
            x = rng.normal(size=6)
            assert obj.value(x) == pytest.approx(
                logistic_value_naive(dense, labels, x), rel=1e-12
            )

    def test_convex_along_random_segments(self):
        rng = np.random.default_rng(2)
        obj, _, _ = random_logistic(rng, 30, 8)
        for _ in range(20):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            mid = 0.5 * (a + b)
            assert obj.value(mid) <= 0.5 * (obj.value(a) + obj.value(b)) + 1e-12


class TestLogisticGradient:
    def test_hand_differentiated_single_sample(self):
        obj = LogisticObjective(SparseMatrix.from_dense([[2.0, 0.0]]), [1.0])
        # -y*sigma(0)*a = -0.5*(2, 0)
        assert_allclose(obj.gradient(np.zeros(2)), [-1.0, 0.0])

    def test_saturated_margins_give_zero_gradient(self):
        obj = LogisticObjective(SparseMatrix.from_dense([[1.0], [2.0]]), [1.0, 1.0])
        g = obj.gradient(np.array([1000.0]))
        assert np.all(np.abs(g) < 1e-40)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(5, 30))
            n = int(rng.integers(2, 10))
            obj, _, _ = random_logistic(rng, m, n)
            x = rng.uniform(-5.0, 5.0, size=n)
            g = obj.gradient(x)
            g_fd = fd_gradient(obj.value, x)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g))


class TestReducedHessian:
    def test_zero_vector_maps_to_zero(self):
        rng = np.random.default_rng(4)
        obj, _, _ = random_logistic(rng, 10, 5)
        apply = obj.reduced_hessian_operator(rng.normal(size=5), np.arange(5))
        out = apply(np.zeros(5))
        assert np.all(out == 0.0)

    def test_full_index_set_matches_fd_hessian(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = int(rng.integers(8, 25))
            n = int(rng.integers(2, 8))
            obj, _, _ = random_logistic(rng, m, n)
            x = rng.normal(size=n)
            h_fd = fd_hessian(obj.gradient, x) + 1e-8 * np.eye(n)
            idx = np.arange(n)
            apply = obj.reduced_hessian_operator(x, idx)
            h_oracle = np.column_stack([apply(e) for e in np.eye(n)])
            assert np.linalg.norm(h_oracle - h_fd) <= 1e-5 * (
                1.0 + np.linalg.norm(h_fd)
            )

    def test_symmetric_bilinear_form(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            obj, _, _ = random_logistic(rng, 20, 9)
            x = rng.normal(size=9)
            k = int(rng.integers(1, 10))
            idx = np.sort(rng.choice(9, size=k, replace=False))
            apply = obj.reduced_hessian_operator(x, idx)
            u = rng.normal(size=k)
            v = rng.normal(size=k)
            assert apply(u) @ v == pytest.approx(u @ apply(v), rel=1e-10, abs=1e-10)

    def test_positive_definite_with_shift(self):
        rng = np.random.default_rng(7)
        obj, _, _ = random_logistic(rng, 15, 6)
        x = rng.normal(size=6)
        apply = obj.reduced_hessian_operator(x, np.arange(6))
        for _ in range(20):
            v = rng.normal(size=6)
            assert v @ apply(v) >= 1e-8 * (v @ v) - 1e-12

    def test_products_go_through_the_patchable_names(self, monkeypatch):
        # the benchmark's tracer times the reduced-space layers by patching
        # exactly these names; a rewrite that bypasses them goes untraced
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("spmv", "spmv_transpose"):
            monkeypatch.setattr(objectives, name, counting(name, getattr(objectives, name)))
        monkeypatch.setattr(
            SparseMatrix,
            "column_submatrix",
            counting("column_submatrix", SparseMatrix.column_submatrix),
        )
        rng = np.random.default_rng(8)
        obj, _, _ = random_logistic(rng, 12, 6)
        apply = obj.reduced_hessian_operator(rng.normal(size=6), np.array([1, 3, 4]))
        assert calls["column_submatrix"] == 1
        after_setup = calls.copy()
        apply(rng.normal(size=3))
        assert calls["spmv"] > after_setup["spmv"]
        assert calls["spmv_transpose"] > after_setup["spmv_transpose"]
        assert calls["column_submatrix"] == 1

    def test_quadratic_reduced_hessian_is_shifted_diagonal(self):
        obj = QuadraticObjective([2.0, 3.0, 4.0], [0.0, 0.0, 0.0])
        idx = np.array([0, 2])
        out = obj.reduced_hessian_operator(np.zeros(3), idx)(np.array([1.0, 1.0]))
        assert_allclose(out, [2.0 + 1e-8, 4.0 + 1e-8])


MARGINS = [
    sign * t
    for t in (0.0, 1e-300, 0.5, 5.0, 20.0, 30.0, 37.0, 40.0, 700.0, 745.0)
    for sign in (1.0, -1.0)
]


def assert_matches_reference(got, expected):
    """rel 1e-14 where the reference is a normal float; subnormals on that scale."""
    tiny = np.finfo(np.float64).tiny
    if abs(expected) >= tiny:
        assert abs(got - expected) <= 1e-14 * abs(expected), (got, expected)
    else:
        assert abs(got - expected) <= 1e-14 * tiny, (got, expected)


class TestPerSampleKernels:
    """Loss, sigma(-t) and sigma(t)*sigma(-t) of a 1x1 problem with margin t."""

    @staticmethod
    def margin_problem(t):
        # a = 1 and y = 1, so the margin is exactly x = t
        return LogisticObjective(SparseMatrix.from_dense([[1.0]]), [1.0]), np.array([t])

    @staticmethod
    def reference(expression, t):
        with mpmath.workdps(60):
            return float(expression(mpmath.mpf(t)))

    @pytest.mark.parametrize("t", MARGINS)
    def test_loss_term(self, t):
        obj, x = self.margin_problem(t)
        expected = self.reference(lambda u: mpmath.log1p(mpmath.exp(-u)), t)
        assert_matches_reference(obj.value(x), expected)

    @pytest.mark.parametrize("t", MARGINS)
    def test_gradient_coefficient(self, t):
        obj, x = self.margin_problem(t)
        expected = self.reference(lambda u: 1 / (1 + mpmath.exp(u)), t)
        # gradient = -y * a * sigma(-t)
        assert_matches_reference(-obj.gradient(x)[0], expected)

    @pytest.mark.parametrize("t", MARGINS)
    def test_hessian_weight(self, t, monkeypatch):
        # without the shift, the 1x1 operator applied to 1 is the weight itself
        monkeypatch.setattr(objectives, "HESSIAN_SHIFT", 0.0)
        obj, x = self.margin_problem(t)
        expected = self.reference(lambda u: mpmath.exp(u) / (1 + mpmath.exp(u)) ** 2, t)
        weight = obj.reduced_hessian_operator(x, np.array([0]))(np.array([1.0]))[0]
        assert_matches_reference(weight, expected)


def oracle_outputs(obj, x, idx, v):
    """value, gradient and one reduced Hessian product at x."""
    return obj.value(x), obj.gradient(x), obj.reduced_hessian_operator(x, idx)(v)


def assert_bitwise_equal(got, expected):
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])


class TestMarginMemo:
    """One remembered point: at margins from a whole-matrix product, hits
    give bitwise a fresh oracle's results."""

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        dense = random_sparse_dense(rng, 25, 9, density=0.6)
        labels = np.where(rng.random(25) < 0.5, -1.0, 1.0)
        matrix = SparseMatrix.from_dense(dense)
        idx = np.array([0, 2, 5, 8])
        return rng, lambda: LogisticObjective(matrix, labels), idx

    def test_hits_match_a_fresh_oracle(self):
        rng, make, idx = self.problem(20)
        obj = make()
        x = rng.normal(size=9)
        v = rng.normal(size=idx.size)
        obj.value(x)
        assert_bitwise_equal(oracle_outputs(obj, x.copy(), idx, v), oracle_outputs(make(), x, idx, v))

    def test_in_place_mutation_is_seen(self):
        rng, make, idx = self.problem(22)
        obj = make()
        x = rng.normal(size=9)
        v = rng.normal(size=idx.size)
        oracle_outputs(obj, x, idx, v)
        x[3] += 1.0
        x[7] = 0.0
        assert_bitwise_equal(oracle_outputs(obj, x, idx, v), oracle_outputs(make(), x, idx, v))

    def test_signed_zeros_give_equal_results(self):
        rng, make, idx = self.problem(23)
        v = rng.normal(size=idx.size)
        x_pos = np.where(rng.random(9) < 0.5, rng.normal(size=9), 0.0)
        x_neg = np.where(x_pos == 0.0, -0.0, x_pos)
        assert np.any(np.signbit(x_neg) & (x_neg == 0.0))
        obj = make()
        pos = oracle_outputs(obj, x_pos, idx, v)
        assert_bitwise_equal(oracle_outputs(obj, x_neg, idx, v), pos)
        assert_bitwise_equal(oracle_outputs(make(), x_neg, idx, v), pos)

    def test_alternating_points_get_their_own_results(self):
        rng, make, idx = self.problem(24)
        v = rng.normal(size=idx.size)
        a = rng.normal(size=9)
        b = a.copy()
        b[4] += 1e-12
        expected = {0: oracle_outputs(make(), a, idx, v), 1: oracle_outputs(make(), b, idx, v)}
        assert expected[0][0] != expected[1][0]
        obj = make()
        for turn in range(6):
            point = (a, b)[turn % 2]
            assert_bitwise_equal(oracle_outputs(obj, point, idx, v), expected[turn % 2])


def count_products(monkeypatch, obj) -> Counter:
    """Count ``spmv`` calls with the oracle's whole matrix and with anything else."""
    counts = Counter()
    spmv = objectives.spmv

    def counting(matrix, x):
        counts["whole" if matrix is obj.matrix else "slice"] += 1
        return spmv(matrix, x)

    monkeypatch.setattr(objectives, "spmv", counting)
    return counts


# A trial price carries the margins at x by one reduced product and one
# addition per sample: each margin stays within a few eps of the sum of the
# magnitudes of the terms that form it, |A| (|x| + |z|), and f within a few
# relative ulps of a fresh oracle's value.
CARRY_ULPS = 4.0
EPS = np.finfo(np.float64).eps


class TestTrialValues:
    """Trials priced on the step's columns, from the margins at x."""

    @staticmethod
    def problem(rng, m, n):
        obj, dense, labels = random_logistic(rng, m, n, density=0.3)
        x = np.where(rng.random(n) < 0.6, rng.normal(size=n), 0.0)
        idx = np.flatnonzero(rng.random(n) < 0.3)
        return obj, dense, labels, x, idx

    @pytest.mark.parametrize("shape", [(60, 20), (400, 300)], ids=["dense-held", "sparse-held"])
    def test_trial_matches_a_fresh_oracle(self, shape):
        rng = np.random.default_rng(30)
        for _ in range(20):
            obj, dense, labels, x, idx = self.problem(rng, *shape)
            fresh = LogisticObjective(obj.matrix, labels)
            obj.gradient(x)
            f_x, price = obj.trial_values(x, idx)
            assert f_x == fresh.value(x)
            for scale in (1.0, 0.5, 1e-3):
                z = x.copy()
                z[idx] += scale * rng.normal(size=idx.size)
                value = price(z[idx])
                expected = LogisticObjective(obj.matrix, labels).value(z)
                assert abs(value - expected) <= CARRY_ULPS * EPS * expected
                t_fresh = labels * (dense @ z)
                t_carried = obj._memo_margins[0]
                terms = np.abs(dense) @ (np.abs(x) + np.abs(z))
                assert np.all(np.abs(t_carried - t_fresh) <= CARRY_ULPS * EPS * terms)

    def test_first_value_makes_no_product(self, monkeypatch):
        rng = np.random.default_rng(31)
        obj, _, _, x, idx = self.problem(rng, 400, 300)
        obj.gradient(x)
        counts = count_products(monkeypatch, obj)
        slices = Counter()
        cut = SparseMatrix.column_submatrix

        def counted(matrix, indices):
            slices["cut"] += 1
            return cut(matrix, indices)

        monkeypatch.setattr(SparseMatrix, "column_submatrix", counted)
        # a phi step: the operator setup's slice serves the trial prices
        obj.reduced_hessian_operator(x, idx)
        f_x, price = obj.trial_values(x, idx)
        assert f_x == obj.value(x) and counts == Counter() and slices["cut"] == 1
        z = x.copy()
        z[idx] += 0.25
        price(z[idx])
        assert counts == Counter(slice=1) and slices["cut"] == 1
        # the next search starts from the trial's point; with no operator
        # setup (a beta step), or an equal index set in another array, it
        # cuts a slice of its own
        f_z, _ = obj.trial_values(z, idx.copy())
        assert f_z == obj.value(z)
        assert slices["cut"] == 2 and counts == Counter(slice=1)

    def test_accepted_margins_reach_the_next_gradient(self, monkeypatch):
        rng = np.random.default_rng(32)
        obj, _, labels, x, idx = self.problem(rng, 400, 300)
        obj.gradient(x)
        _, price = obj.trial_values(x, idx)
        z = x.copy()
        z[idx] = 0.5 * x[idx] + rng.normal(size=idx.size)
        price(z[idx] + 1.0)  # a rejected trial first
        value = price(z[idx])
        expected = LogisticObjective(obj.matrix, labels).gradient(z)
        counts = count_products(monkeypatch, obj)
        grad = obj.gradient(z)
        obj.reduced_hessian_operator(z, idx)
        assert obj.value(z) == value
        assert counts == Counter()
        assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)
        # a point off the trial's misses and makes one product of its own
        z[0] += 1.0
        obj.gradient(z)
        assert counts == Counter(whole=1)

    def test_default_prices_through_value(self):
        rng = np.random.default_rng(33)
        obj = QuadraticObjective(rng.uniform(0.5, 3.0, size=8), rng.normal(size=8))
        x = rng.normal(size=8)
        idx = np.array([1, 4, 6])
        f_x, price = obj.trial_values(x, idx)
        assert f_x == obj.value(x)
        z = x.copy()
        z[idx] = rng.normal(size=3)
        assert price(z[idx]) == obj.value(z)


class TestQuadratic:
    def test_value_and_gradient_closed_form(self):
        obj = QuadraticObjective([1.0, 4.0], [-3.0, 2.0])
        x = np.array([2.0, -1.0])
        assert obj.value(x) == pytest.approx(0.5 * (4.0 + 4.0) + (-6.0 - 2.0))
        assert_allclose(obj.gradient(x), [2.0 - 3.0, -4.0 + 2.0])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        obj = QuadraticObjective(rng.uniform(0.5, 3.0, size=7), rng.normal(size=7))
        x = rng.uniform(-5.0, 5.0, size=7)
        g = obj.gradient(x)
        g_fd = fd_gradient(obj.value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            QuadraticObjective([1.0, 0.0], [0.0, 0.0])


def test_labels_must_be_plus_minus_one():
    with pytest.raises(ValueError, match="-1 or \\+1"):
        LogisticObjective(SparseMatrix.from_dense([[1.0]]), [2.0])
