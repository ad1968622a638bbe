"""Reference direction, model conditions, and the CG solver's stop rules."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import LogisticObjective, SparseMatrix
from farsa.subproblem import CgStopReason, _orthant_violations, cg_solve
from reference import accept_direction, model_decrease, random_sparse_dense, reference_direction


def matrix_hvp(h):
    h = np.asarray(h, dtype=float)
    return lambda v: h @ v


def random_spd(rng, n, eig_low=0.5, eig_high=10.0, shift=1e-8):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(eig_low, eig_high, size=n)
    return q @ np.diag(eigs) @ q.T + shift * np.eye(n)


class TestReferenceDirection:
    def test_shifted_identity(self):
        h = (1.0 + 1e-8) * np.eye(2)
        d, alpha = reference_direction([2.0, 0.0], matrix_hvp(h))
        assert alpha == pytest.approx(1.0 / (1.0 + 1e-8), rel=1e-12)
        assert_allclose(d, [-2.0, 0.0], rtol=1e-7)

    def test_closed_form_alpha_on_diagonal(self):
        h = np.diag([1.0, 4.0]) + 1e-8 * np.eye(2)
        d, alpha = reference_direction([1.0, 1.0], matrix_hvp(h))
        assert alpha == pytest.approx(2.0 / 5.0, rel=1e-7)
        assert_allclose(d, [-0.4, -0.4], atol=1e-7)

    def test_model_value_is_negative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            h = random_spd(rng, n)
            g = rng.normal(size=n)
            hvp = matrix_hvp(h)
            d, _ = reference_direction(g, hvp)
            expected = -0.5 * (g @ g) ** 2 / (g @ h @ g)
            assert model_decrease(g, d, hvp) == pytest.approx(expected, rel=1e-10)
            assert model_decrease(g, d, hvp) < 0.0

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(ArithmeticError, match="not positive definite"):
            reference_direction([1.0], matrix_hvp([[-1.0]]))


class TestAcceptDirection:
    def test_reference_direction_accepted(self):
        h = random_spd(np.random.default_rng(21), 4)
        g = np.array([1.0, -2.0, 0.5, 3.0])
        hvp = matrix_hvp(h)
        d_ref, _ = reference_direction(g, hvp)
        assert accept_direction(g, d_ref, d_ref, hvp)

    def test_zero_direction_rejected(self):
        h = np.eye(2)
        g = np.array([1.0, 1.0])
        hvp = matrix_hvp(h)
        d_ref, _ = reference_direction(g, hvp)
        assert not accept_direction(g, np.zeros(2), d_ref, hvp)

    def test_newton_step_accepted(self):
        rng = np.random.default_rng(22)
        h = random_spd(rng, 3)
        g = rng.normal(size=3)
        hvp = matrix_hvp(h)
        d_newton = np.linalg.solve(h, -g)
        d_ref, _ = reference_direction(g, hvp)
        assert accept_direction(g, d_newton, d_ref, hvp)


class TestModelDecrease:
    def test_zero_step(self):
        assert model_decrease([1.0, 2.0], [0.0, 0.0], matrix_hvp(np.eye(2))) == 0.0

    def test_reference_direction_closed_form(self):
        rng = np.random.default_rng(23)
        h = random_spd(rng, 5)
        g = rng.normal(size=5)
        hvp = matrix_hvp(h)
        d, alpha = reference_direction(g, hvp)
        assert model_decrease(g, d, hvp) == pytest.approx(
            -0.5 * alpha * (g @ g), rel=1e-12
        )

    def test_newton_step_minimizes_model(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            h = random_spd(rng, n)
            g = rng.normal(size=n)
            hvp = matrix_hvp(h)
            d_newton = np.linalg.solve(h, -g)
            m_newton = model_decrease(g, d_newton, hvp)
            assert m_newton == pytest.approx(0.5 * g @ d_newton, rel=1e-10)
            d_other, _ = reference_direction(g, hvp)
            assert m_newton <= model_decrease(g, d_other, hvp) + 1e-12


class TestCgSolve:
    def test_identity_system_solved_in_one_iteration(self):
        rng = np.random.default_rng(25)
        g = rng.normal(size=6)
        h = (1.0 + 1e-8) * np.eye(6)
        out = cg_solve(matrix_hvp(h), g, 10.0 * np.ones(6), 1e3)
        assert out.stop_reason is CgStopReason.RESIDUAL_REDUCED
        assert out.iterations == 1
        assert_allclose(out.direction, -g, rtol=1e-7)

    def test_step_norm_cap_triggers_on_first_large_iterate(self):
        h = np.diag([1.0, 2.0, 4.0, 8.0, 16.0])
        g = np.ones(5)
        out = cg_solve(matrix_hvp(h), g, 10.0 * np.ones(5), 1e-9)
        assert out.stop_reason is CgStopReason.STEP_TOO_LARGE
        assert out.iterations == 1
        assert np.linalg.norm(out.direction) >= 1e-9

    def test_orthant_violation_rule_triggers(self):
        rng = np.random.default_rng(26)
        n = 1200
        diag = rng.uniform(1.0, 100.0, size=n)
        g = np.ones(n)
        x_restricted = 1e-6 * np.ones(n)
        out = cg_solve(lambda v: diag * v, g, x_restricted, 1e3)
        assert out.stop_reason is CgStopReason.ORTHANT_VIOLATIONS
        moved = np.sign(x_restricted + out.direction)
        flipped = np.count_nonzero((moved != 0.0) & (moved != 1.0))
        assert flipped >= max(1e3, 0.1 * n)

    def test_orthant_violations_count_zeros_that_move(self):
        # flip, keep, zero moving off zero, zero staying, landing on zero
        x = np.array([1.0, -2.0, 0.0, 0.0, 3.0])
        d = np.array([-2.0, 1.0, 0.5, 0.0, -3.0])
        assert _orthant_violations(x, np.sign(x), d) == 2

    def test_returned_direction_always_acceptable(self):
        rng = np.random.default_rng(27)
        for trial in range(30):
            n = int(rng.integers(2, 15))
            h = random_spd(rng, n)
            g = rng.normal(size=n)
            hvp = matrix_hvp(h)
            cap = float(rng.uniform(0.05, 10.0))
            out = cg_solve(hvp, g, rng.normal(size=n), cap)
            d_ref, _ = reference_direction(g, hvp)
            assert accept_direction(g, out.direction, d_ref, hvp)

    def test_first_iterate_equals_reference_direction(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            h = random_spd(rng, n)
            g = rng.normal(size=n)
            hvp = matrix_hvp(h)
            # a zero cap stops CG after its first iterate, whichever rule fires
            out = cg_solve(hvp, g, np.ones(n), 0.0)
            assert out.iterations == 1
            d_ref, _ = reference_direction(g, hvp)
            assert g @ out.direction == g @ d_ref

    def test_iterate_norms_nondecreasing(self):
        rng = np.random.default_rng(29)
        h = random_spd(rng, 12)
        g = rng.normal(size=12)
        hvp = matrix_hvp(h)
        # the cap returns the first iterate at least that long, so a sweep of
        # caps visits the iterates in turn up to the residual rule
        newton_norm = np.linalg.norm(np.linalg.solve(h, -g))
        norms = {}
        for cap in np.geomspace(1e-3, 2.0 * newton_norm, 400):
            out = cg_solve(hvp, g, np.ones(12), float(cap))
            norms[out.iterations] = np.linalg.norm(out.direction)
        assert len(norms) >= 3
        diffs = np.diff([norms[j] for j in sorted(norms)])
        assert np.all(diffs >= -1e-12)

    def test_step_bound_against_smallest_eigenvalue(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            h = random_spd(rng, n)
            g = rng.normal(size=n)
            theta_min = float(np.linalg.eigvalsh(h).min())
            cap = float(rng.uniform(0.05, 100.0))
            out = cg_solve(matrix_hvp(h), g, rng.normal(size=n), cap)
            bound = (2.0 / theta_min) * np.linalg.norm(g) + 1e-10
            assert np.linalg.norm(out.direction) <= bound

    def test_finite_termination_on_three_eigenvalues(self):
        # CG solves exactly in as many iterations as H has distinct
        # eigenvalues; with these three far apart the first two iterates
        # leave the residual above a tenth of ||g||, so the residual rule
        # fires only at the third, exact one
        rng = np.random.default_rng(31)
        n = 20
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = q @ np.diag(np.repeat([1.0, 30.0, 900.0], [7, 7, 6])) @ q.T
        g = rng.normal(size=n)
        out = cg_solve(matrix_hvp(h), g, np.ones(n), np.inf)
        assert out.stop_reason is CgStopReason.RESIDUAL_REDUCED
        assert out.iterations == 3
        assert np.linalg.norm(h @ out.direction + g) <= 1e-9 * np.linalg.norm(g)
        assert_allclose(out.direction, np.linalg.solve(h, -g), rtol=1e-8)

    def test_iteration_cap_is_subspace_dimension(self):
        # in exact arithmetic CG is done after n iterations; on a system this
        # ill-conditioned rounding leaves the residual unreduced, and the
        # solve stops at the cap |I| = n with its last iterate
        n = 10
        diag = np.geomspace(1.0, 1e10, n)
        g = np.ones(n)
        out = cg_solve(lambda v: diag * v, g, np.ones(n), np.inf)
        assert out.stop_reason is CgStopReason.MAX_ITERATIONS
        assert out.iterations == n
        assert np.linalg.norm(diag * out.direction + g) > 0.1 * np.linalg.norm(g)

    def test_non_finite_residual_names_iteration(self):
        def bad_hvp(v):
            return np.full_like(v, np.nan)

        with pytest.raises(ArithmeticError, match="iteration 1"):
            cg_solve(bad_hvp, np.ones(3), np.ones(3), 1e3)

    def test_dimension_mismatch_detected(self):
        def wrong_shape(v):
            return np.ones(v.size + 1)

        with pytest.raises(ValueError, match="shape"):
            cg_solve(wrong_shape, np.ones(3), np.ones(3), 1e3)


def logistic_operator(rng, m, n, k):
    """The reduced Hessian operator of a random m x n logistic problem on k random columns."""
    dense = random_sparse_dense(rng, m, n)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    oracle = LogisticObjective(SparseMatrix.from_dense(dense), labels)
    x = rng.normal(scale=0.3, size=n)
    indices = np.sort(rng.choice(n, size=k, replace=False))
    return oracle.reduced_hessian_operator(x, indices), x[indices]


def operator_matrix(hvp, k):
    return np.column_stack([hvp(e) for e in np.eye(k)])


class TestPreconditionedCg:
    """The exact inverse the logistic operator offers, and where it offers one."""

    def test_exact_inverse_takes_the_newton_step(self):
        # dense-held slices (m*n <= 2^15) with |I| <= m and m*|I|^2 <= 2^18.
        # The step must solve H d = -g to rounding on any draw.  Its normwise
        # backward error may be 32 eps (LU with partial pivoting on orders up
        # to 64; 9,000 draws read at most 10.5 eps).  Since d - d_newton =
        # H^-1 (r - r_newton) for the two residuals, the forward error is
        # then at most 4 * 32 * cond(H) * eps to first order, if
        # np.linalg.solve meets the same bound.
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = int(rng.integers(2, 65))
            m = int(rng.integers(k, min(2**18 // k**2, 2**15 // k) + 1))
            n = int(rng.integers(k, 2**15 // m + 1))
            hvp, _ = logistic_operator(rng, m, n, k)
            g = rng.normal(size=k)
            d = hvp.inverse(-g)
            d_ref, _ = reference_direction(g, hvp)
            assert accept_direction(g, d, d_ref, hvp)
            h = operator_matrix(hvp, k)
            theta_min = float(np.linalg.eigvalsh(0.5 * (h + h.T)).min())
            bound = (2.0 / theta_min) * float(np.linalg.norm(g)) + 1e-10
            assert float(np.linalg.norm(d)) <= bound
            scale = np.linalg.norm(h, 2) * np.linalg.norm(d) + np.linalg.norm(g)
            assert np.linalg.norm(h @ d + g) <= 32 * eps * scale
            d_newton = np.linalg.solve(h, -g)
            forward = np.linalg.norm(d - d_newton) / np.linalg.norm(d_newton)
            assert forward <= 128 * np.linalg.cond(h) * eps

    @pytest.mark.parametrize(
        "m, n, k",
        [
            (257, 128, 16),  # 257 * 128 > 2^15 entries: the matrix is held sparse
            (40, 60, 41),  # |I| > m: the Gram matrix is singular apart from the shift
            (256, 128, 33),  # 256 * 33^2 just over 2^18
        ],
    )
    def test_no_inverse_outside_the_three_conditions(self, m, n, k):
        hvp, _ = logistic_operator(np.random.default_rng(43), m, n, k)
        assert not hasattr(hvp, "inverse")

    def test_inverse_offered_at_the_bound(self):
        hvp, _ = logistic_operator(np.random.default_rng(44), 256, 128, 32)
        h = operator_matrix(hvp, 32)
        g = np.random.default_rng(45).normal(size=32)
        assert_allclose(hvp.inverse(g), np.linalg.solve(h, g), rtol=1e-10)
