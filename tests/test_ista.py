"""Proximal-gradient baseline: its step kernel, fixed points, and agreement."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import IstaConfig, SolveStatus, ista_solve
from farsa.optimality import ista_step, optimality_measures
from problems import QuadraticObjective, quadratic_l1_minimizer, random_quadratic
from reference import shrink_step_scalar


def ista_update(x, g, t, lam):
    """ISTA's update x + ista_step(x, t*g, t*lam), its step checked bitwise
    against the scalar transcription."""
    x, g = np.array(x), np.array(g)
    step = ista_step(x, t * g, t * lam)
    assert np.array_equal(step, shrink_step_scalar(x, t * g, t * lam))
    return x + step


@pytest.mark.parametrize("t", [0.5, 2.5])
class TestIstaUpdate:
    def test_inner_region_collapses_to_exact_zero(self, t):
        # |x - t*g| <= t*lam in every component
        out = ista_update([0.5, -0.3, 0.0], [0.2, -0.1, 0.3], t, 1.0)
        assert np.all(out == 0.0)

    def test_outer_regions_shift_by_threshold(self, t):
        x, g, lam = np.array([2.0, -2.0]), np.array([-0.5, 0.25]), 0.2
        u = x - t * g
        out = ista_update(x, g, t, lam)
        assert_allclose(out, u - np.sign(u) * t * lam)
        assert np.all(np.sign(out) == np.sign(u))

    def test_fixed_point_only_at_zero_when_gradient_vanishes(self, t):
        # grad=0: any |x_i| <= t*lam maps to 0, so x is fixed only if 0
        x = np.array([0.4, -0.9])
        out = ista_update(x, np.zeros(2), t, 2.0)
        assert np.all(out == 0.0)
        assert not np.array_equal(out, x)
        assert np.array_equal(ista_update(np.zeros(2), np.zeros(2), t, 2.0), np.zeros(2))


class TestIstaSolve:
    def test_soft_threshold_quadratic(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = ista_solve(obj, 1.0, IstaConfig(epsilon=1e-10))
        assert report.status is SolveStatus.OPTIMAL
        assert_allclose(report.x_final, [2.0], atol=1e-9)

    def test_monotone_descent_under_backtracking(self):
        rng = np.random.default_rng(41)
        obj, lam = random_quadratic(rng, 12)

        total = lambda z: obj.value(z) + lam * np.sum(np.abs(z))
        x = np.zeros(12)
        values = [total(x)]
        # replay a few steps by tightening epsilon snapshots
        report = ista_solve(obj, lam, IstaConfig(epsilon=1e-8))
        values.append(report.objective)
        tighter = ista_solve(
            obj, lam, IstaConfig(epsilon=1e-10), x0=report.x_final
        )
        values.append(tighter.objective)
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_fixed_points_are_exactly_the_zero_measure_points(self):
        rng = np.random.default_rng(42)
        obj, lam = random_quadratic(rng, 8)
        x_star = quadratic_l1_minimizer(obj, lam)
        grad = obj.gradient(x_star)
        pair = optimality_measures(x_star, grad, lam)
        moved = x_star + ista_step(x_star, grad, lam)
        if pair.max_norm <= 1e-12:
            assert_allclose(moved, x_star, atol=1e-12)
        # and a non-stationary point must move
        x = x_star + 1.0
        assert not np.allclose(x + ista_step(x, obj.gradient(x), lam), x)

    def test_matches_closed_form_on_random_quadratics(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            obj, lam = random_quadratic(rng, 20)
            report = ista_solve(obj, lam, IstaConfig(epsilon=1e-10))
            assert report.status is SolveStatus.OPTIMAL
            x_star = quadratic_l1_minimizer(obj, lam)
            assert np.linalg.norm(report.x_final - x_star) <= 1e-7

    def test_never_backtracks_when_the_unit_step_passes(self):
        # With every diagonal entry at most 1, L <= 1 and the unit step
        # passes the backtracking test at every point.  A step that never
        # grows then never fails the test: one value call at x0 and one per
        # iteration, with no backtrack.
        rng = np.random.default_rng(7)
        for _ in range(5):
            obj = QuadraticObjective(rng.uniform(0.2, 1.0, size=30), rng.normal(size=30))
            calls = 0
            value = obj.value

            def counting_value(x):
                nonlocal calls
                calls += 1
                return value(x)

            obj.value = counting_value
            report = ista_solve(obj, 0.5, IstaConfig(epsilon=1e-10))
            assert report.status is SolveStatus.OPTIMAL
            assert calls == report.iterations + 1

    def test_max_iterations_status(self):
        obj = QuadraticObjective([1.0, 3.7], [-3.0, 2.1])
        report = ista_solve(obj, 1.0, IstaConfig(epsilon=1e-10, max_iter=2))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            IstaConfig(epsilon=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_epsilon_and_lam_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon"):
            IstaConfig(epsilon=value)
        with pytest.raises(ValueError, match="lam"):
            ista_solve(QuadraticObjective([1.0], [-3.0]), value, IstaConfig())
