"""Proximal-gradient baseline: shrink map, fixed points, and agreement."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import (
    IstaConfig,
    QuadraticObjective,
    SolveStatus,
    ista_solve,
    ista_step,
    optimality_measures,
)
from farsa.ista import shrink
from problems import quadratic_l1_minimizer, random_quadratic


class TestShrink:
    def test_inner_region_collapses_to_exact_zero(self):
        out = shrink(np.array([0.5, -0.3, 0.0]), 1.0)
        assert np.all(out == 0.0)

    def test_outer_regions_shift_by_threshold(self):
        assert_allclose(shrink(np.array([2.0, -2.0]), 0.5), [1.5, -1.5])

    def test_fixed_point_only_at_zero_when_gradient_vanishes(self):
        # t=1, grad=0: any |x_i| <= lam maps to 0, so x is fixed only if 0
        x = np.array([0.4, -0.9])
        out = shrink(x - 0.0, 1.0)
        assert np.all(out == 0.0)
        assert not np.array_equal(out, x)
        assert np.array_equal(shrink(np.zeros(2), 1.0), np.zeros(2))


class TestIstaSolve:
    def test_soft_threshold_quadratic(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = ista_solve(obj, 1.0, IstaConfig(epsilon=1e-10))
        assert report.status is SolveStatus.OPTIMAL
        assert_allclose(report.x_final, [2.0], atol=1e-9)

    def test_unit_step_update_equals_measure_displacement(self):
        # x+ = x + s with s = -(beta + phi) from the measures module
        rng = np.random.default_rng(40)
        obj, lam = random_quadratic(rng, 10)
        x = rng.normal(size=10)
        x[rng.random(10) < 0.3] = 0.0
        grad = obj.gradient(x)
        via_shrink = shrink(x - grad, lam)
        via_measures = x + ista_step(x, grad, lam)
        assert_allclose(via_shrink, via_measures, atol=1e-14)

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
        moved = shrink(x_star - grad, lam)
        if pair.max_norm <= 1e-12:
            assert_allclose(moved, x_star, atol=1e-12)
        # and a non-stationary point must move
        x = x_star + 1.0
        assert not np.allclose(shrink(x - obj.gradient(x), lam), x)

    def test_matches_closed_form_on_random_quadratics(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            obj, lam = random_quadratic(rng, 20)
            report = ista_solve(obj, lam, IstaConfig(epsilon=1e-10))
            assert report.status is SolveStatus.OPTIMAL
            x_star = quadratic_l1_minimizer(obj, lam)
            assert np.linalg.norm(report.x_final - x_star) <= 1e-7

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
