"""Orthant projection and both line searches, traced against hand values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import (
    LineSearchError,
    PhiOutcome,
    linesearch_beta,
    linesearch_phi,
    project_orthant,
)
from farsa.linesearch import ETA, XI, orthant_boundary_step


class TestProjection:
    def test_case_table(self):
        out = project_orthant(np.array([2.0, 3.0, 5.0]), np.array([1.0, -1.0, 0.0]))
        assert_allclose(out, [2.0, 0.0, 0.0])
        assert out[1] == 0.0 and out[2] == 0.0

    def test_same_orthant_unchanged(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = rng.normal(size=10)
            y = x * rng.uniform(0.1, 3.0, size=10)  # same signs
            assert np.array_equal(project_orthant(y, x), y)

    def test_idempotent(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.normal(size=12)
            x[rng.random(12) < 0.3] = 0.0
            y = rng.normal(size=12)
            once = project_orthant(y, x)
            assert np.array_equal(project_orthant(once, x), once)


class TestOrthantBoundaryStep:
    def test_single_binding_component(self):
        alpha, binding = orthant_boundary_step(
            np.array([1.0, 1.0]), np.array([-1.6, -0.5])
        )
        assert alpha == pytest.approx(0.625)
        assert binding.tolist() == [0]

    def test_simultaneous_ties_all_binding(self):
        alpha, binding = orthant_boundary_step(
            np.array([1.0, 2.0, -3.0]), np.array([-2.0, -4.0, 6.0])
        )
        assert alpha == 0.5
        assert binding.tolist() == [0, 1, 2]

    def test_requires_a_crossing(self):
        with pytest.raises(ValueError, match="leaves the orthant"):
            orthant_boundary_step(np.array([1.0]), np.array([0.5]))


class TestPhiSearch:
    def test_newton_step_on_quadratic_accepts_full_step(self):
        # f(z) = 0.5*(z-3)^2 from x=1 with the Newton step d=2: same orthant,
        # Armijo at j=0
        f = lambda z: 0.5 * (z[0] - 3.0) ** 2
        x = np.array([1.0])
        d = np.array([2.0])
        grad_reduced = np.array([-2.0])
        res = linesearch_phi(f, x, d, [0], grad_reduced)
        assert res.outcome is PhiOutcome.SUFFICIENT_DECREASE
        assert res.step_size == 1.0
        assert res.backtracks == 0
        assert_allclose(res.next_x, [3.0])

    def test_projected_decrease_returns_add_with_exact_zero(self):
        f = lambda z: float(z[0] ** 2)
        x = np.array([1.0])
        d = np.array([-2.0])
        res = linesearch_phi(f, x, d, [0], np.array([2.0 * x[0]]))
        assert res.outcome is PhiOutcome.ADD
        assert res.next_x[0] == 0.0
        assert res.backtracks == 0

    def test_boundary_step_returns_add_with_binding_zero(self):
        # while-loop decrease fails at j=0, the largest in-orthant step
        # passes its Armijo test
        a = np.array([[1.0, -2.0], [-2.0, 8.0]])
        b = np.array([2.0, -8.0])
        f = lambda z: 0.5 * z @ a @ z + b @ z
        x = np.array([1.0, 1.0])
        d = np.array([-1.6, -0.5])
        grad_reduced = a @ x + b
        res = linesearch_phi(f, x, d, [0, 1], grad_reduced)
        assert res.outcome is PhiOutcome.ADD
        assert res.step_size == pytest.approx(0.625)
        assert res.next_x[0] == 0.0
        assert res.next_x[1] == pytest.approx(0.6875)
        assert res.backtracks == 1

    def test_armijo_backtracking_after_boundary_test_fails(self):
        # boundary Armijo fails, plain backtracking then accepts at j=2 in
        # the original orthant
        a = np.array([[6.0, 2.0], [2.0, 11.0]])
        b = np.array([-9.0, -1.2])
        f = lambda z: 0.5 * z @ a @ z + b @ z
        x = np.array([1.0, 1.0])
        d = np.array([-1.6, -0.5])
        grad_reduced = a @ x + b
        res = linesearch_phi(f, x, d, [0, 1], grad_reduced)
        assert res.outcome is PhiOutcome.SUFFICIENT_DECREASE
        assert res.step_size == 0.25
        assert_allclose(res.next_x, [0.6, 0.875])
        assert np.array_equal(np.sign(res.next_x), np.sign(x))
        # Armijo inequality holds at the returned step
        assert f(res.next_x) <= f(x) + ETA * 0.25 * (grad_reduced @ d)

    def test_add_outcomes_shrink_the_support(self):
        rng = np.random.default_rng(34)
        shrunk = 0
        for _ in range(50):
            n = int(rng.integers(2, 8))
            diag = rng.uniform(0.5, 3.0, size=n)
            target = rng.normal(size=n)
            f = lambda z: 0.5 * float((z - target) @ (diag * (z - target)))
            x = rng.normal(size=n)
            x[x == 0.0] = 1.0
            d = rng.normal(scale=2.0, size=n)
            grad = diag * (x - target)
            res = linesearch_phi(f, x, d, np.arange(n), grad)
            assert f(res.next_x) <= f(x) + 1e-12  # monotone
            assert res.value == f(res.next_x)
            if res.outcome is PhiOutcome.ADD:
                shrunk += 1
                assert not np.array_equal(np.sign(res.next_x), np.sign(x))
                assert np.count_nonzero(res.next_x == 0.0) > np.count_nonzero(
                    x == 0.0
                )
            else:
                # SUFFICIENT_DECREASE keeps every sign: the solver's phi_sd
                # and phi_add come from this outcome alone
                assert np.array_equal(np.sign(res.next_x), np.sign(x))
        assert 0 < shrunk < 50  # both outcomes were exercised

    def test_inconsistent_gradient_raises(self):
        # deliberately wrong oracle: F jumps by a constant off the base point,
        # so no amount of backtracking can satisfy the Armijo test
        x = np.array([1.0])
        f = lambda z: 0.0 if np.array_equal(z, x) else 1.0
        d = np.array([1.0])
        with pytest.raises(LineSearchError, match="line search failed"):
            linesearch_phi(f, x, d, [0], np.array([-10.0]))


class TestBetaSearch:
    def test_full_step_accepted_when_curvature_small(self):
        # f(z) = 0.5 z^2 - 3z + |z| at x=0 with the freeing step d = 2
        f = lambda z: 0.5 * z[0] ** 2 - 3.0 * z[0] + abs(z[0])
        res = linesearch_beta(f, np.array([0.0]), np.array([2.0]))
        assert res.backtracks == 0
        assert res.step_size == 1.0
        assert_allclose(res.next_x, [2.0])
        assert f(res.next_x) <= f(np.zeros(1)) - ETA * 1.0 * 4.0

    def test_step_halving_count(self):
        # f(z) = 5 z^2 - z along d=1 from 0: descent condition first holds
        # at step 0.125 (j = 3)
        f = lambda z: 5.0 * z[0] ** 2 - z[0]
        res = linesearch_beta(f, np.array([0.0]), np.array([1.0]))
        assert res.backtracks == 3
        assert res.step_size == 0.125

    def test_flat_objective_drives_error_path(self):
        # a valid freeing direction always descends; an oracle that is flat
        # along d (up to a bump rounding cannot hide) must exhaust the budget
        x = np.zeros(2)
        f = lambda z: 0.0 if np.array_equal(z, x) else 1e-3
        with pytest.raises(LineSearchError, match="line search failed"):
            linesearch_beta(f, x, np.array([1.0, 0.0]))

    def test_step_too_short_to_move_raises(self):
        # x + d rounds back to x: the search must report the null step, not
        # return it as accepted
        f = lambda z: -z[0]
        x = np.array([1.0])
        with pytest.raises(LineSearchError, match="does not move the iterate"):
            linesearch_beta(f, x, np.array([1e-17]))

    def test_monotone_descent(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            diag = rng.uniform(0.5, 4.0, size=n)
            c = rng.normal(size=n)
            f = lambda z: 0.5 * float(z @ (diag * z)) + float(c @ z)
            x = np.zeros(n)
            d = -np.sign(c) * rng.uniform(0.1, 1.0)
            if np.all(d * c >= 0):  # ensure descent direction
                d = -c
            res = linesearch_beta(f, x, d)
            assert f(res.next_x) <= f(x)

    def test_accepted_step_bounded_below_by_curvature(self):
        # on quadratics with gradient Lipschitz constant L, the accepted
        # step is at least min{1, xi/L}
        rng = np.random.default_rng(36)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            diag = rng.uniform(0.2, 20.0, size=n)
            lipschitz = float(diag.max())
            c = rng.normal(size=n) * 3.0
            f = lambda z: 0.5 * float(z @ (diag * z)) + float(c @ z)
            d = -c  # steepest descent from the origin
            res = linesearch_beta(f, np.zeros(n), d)
            assert res.step_size >= min(1.0, XI / lipschitz)
