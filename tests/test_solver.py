"""Outer solver loop: closed forms, trace invariants, budgets, failure modes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import (
    IterationType,
    QuadraticObjective,
    SolverConfig,
    SolverState,
    SolveStatus,
    ista_solve,
    IstaConfig,
    optimality_measures,
    solve,
)
from farsa.objectives import ObjectiveOracle
from farsa.solver import _clamp, beta_iteration, phi_iteration
from problems import quadratic_l1_minimizer, random_logistic_problem, random_quadratic


class TestSoftThresholdQuadratic:
    def test_converges_to_closed_form(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = solve(obj, SolverConfig(lam=1.0, epsilon=1e-12))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations <= 5
        assert_allclose(report.x_final, [2.0], atol=1e-12)
        pair = optimality_measures(
            report.x_final, obj.gradient(report.x_final), 1.0
        )
        assert max(pair.beta_norm, pair.phi_norm) <= 1e-12

    def test_optimal_start_returns_immediately(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = solve(obj, SolverConfig(lam=1.0), x0=np.array([2.0]))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations == 0
        assert report.trace == []


class TestAdaptiveScales:
    def test_phi_step_cap_clamps(self):
        assert _clamp(1e-9, 1e-3, 1e3, scale=10.0) == 1e-3
        assert _clamp(1e9, 1e-3, 1e3, scale=10.0) == 1e3
        assert _clamp(None, 1e-3, 1e3, scale=10.0) == 1e3
        assert _clamp(0.05, 1e-3, 1e3, scale=10.0) == 0.5

    def test_beta_scale_clamps(self):
        assert _clamp(1e-9, 1e-5, 1.0) == 1e-5
        assert _clamp(7.0, 1e-5, 1.0) == 1.0
        assert _clamp(None, 1e-5, 1.0) == 1.0

    def test_first_beta_direction_has_unit_norm(self):
        # |g_i| > lam at zero: first-ever freeing direction has length
        # exactly delta = 1
        obj = QuadraticObjective([1.0, 1.0, 1.0], [-3.0, 4.0, 0.1])
        config = SolverConfig(lam=1.0)
        state = SolverState(x=np.zeros(3))
        grad = obj.gradient(state.x)
        pair = optimality_measures(state.x, grad, config.lam)
        record = beta_iteration(state, obj, config, grad, pair)
        assert record.type is IterationType.BETA
        step_len = np.linalg.norm(state.x - np.zeros(3)) / record.step_size
        assert step_len == pytest.approx(1.0, rel=1e-12)

    def test_beta_iteration_frees_only_violating_coordinates(self):
        obj = QuadraticObjective([1.0, 1.0, 1.0], [-3.0, 4.0, 0.1])
        config = SolverConfig(lam=1.0)
        state = SolverState(x=np.zeros(3))
        grad = obj.gradient(state.x)
        pair = optimality_measures(state.x, grad, config.lam)
        beta_support = np.flatnonzero(pair.beta)
        beta_iteration(state, obj, config, grad, pair)
        assert np.array_equal(np.flatnonzero(state.x), beta_support)
        assert beta_support.tolist() == [0, 1]  # |0.1| <= lam stays zero

    def test_phi_iteration_newton_step_on_separable_quadratic(self):
        # from inside the optimal orthant one phi-iteration lands on the
        # minimizer (up to the Hessian shift)
        obj = QuadraticObjective([1.0], [-3.0])
        config = SolverConfig(lam=1.0)
        state = SolverState(x=np.array([1.0]))
        grad = obj.gradient(state.x)
        pair = optimality_measures(state.x, grad, config.lam)
        record = phi_iteration(state, obj, config, grad, pair)
        assert record.step_size == 1.0
        assert_allclose(state.x, [2.0], atol=1e-7)


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_problems_terminate_with_clean_traces(self, seed):
        rng = np.random.default_rng(100 + seed)
        if seed % 2 == 0:
            obj, lam = random_quadratic(rng, int(rng.integers(3, 30)))
        else:
            obj, lam = random_logistic_problem(
                rng, int(rng.integers(10, 40)), int(rng.integers(3, 20))
            )
        config = SolverConfig(lam=lam)
        report = solve(obj, config)
        assert report.status is SolveStatus.OPTIMAL
        objectives = [r.objective for r in report.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert all(
            r.type in (IterationType.PHI_SD, IterationType.PHI_ADD, IterationType.BETA)
            for r in report.trace
        )
        assert report.objective <= (
            obj.value(np.zeros(obj.dim)) + 1e-12
        )
        pair = optimality_measures(report.x_final, obj.gradient(report.x_final), lam)
        assert max(pair.beta_norm, pair.phi_norm) <= config.epsilon

    def test_phi_iterations_never_touch_zero_variables(self):
        rng = np.random.default_rng(200)
        obj, lam = random_logistic_problem(rng, 30, 12)
        config = SolverConfig(lam=lam)
        # replay the solve manually to watch supports
        state = SolverState(x=np.zeros(12))
        for _ in range(200):
            grad = obj.gradient(state.x)
            pair = optimality_measures(state.x, grad, lam)
            if max(pair.beta_norm, pair.phi_norm) <= config.epsilon:
                break
            before = state.x.copy()
            if pair.beta_norm <= pair.phi_norm:
                phi_iteration(state, obj, config, grad, pair)
                was_zero = before == 0.0
                assert np.all(state.x[was_zero] == 0.0)
            else:
                beta_iteration(state, obj, config, grad, pair)
                freed = (before == 0.0) & (state.x != 0.0)
                assert np.all(pair.beta[freed] != 0.0)

    def test_solution_matches_ista_baseline_and_closed_form(self):
        rng = np.random.default_rng(300)
        for _ in range(3):
            obj, lam = random_quadratic(rng, 15)
            fast = solve(obj, SolverConfig(lam=lam))
            baseline = ista_solve(obj, lam, IstaConfig(epsilon=1e-10))
            assert fast.objective == pytest.approx(
                baseline.objective, rel=1e-8, abs=1e-10
            )
            x_star = quadratic_l1_minimizer(obj, lam)
            assert np.linalg.norm(fast.x_final - x_star) <= 1e-5

    def test_objective_matches_conic_solver(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(500)
        obj, lam = random_logistic_problem(rng, 40, 12)
        dense = obj.matrix.to_dense()
        x = cp.Variable(12)
        loss = cp.sum(cp.logistic(-cp.multiply(obj.labels, dense @ x)))
        problem = cp.Problem(cp.Minimize(loss + lam * cp.norm1(x)))
        problem.solve()
        report = solve(obj, SolverConfig(lam=lam, epsilon=1e-8))
        assert report.objective == pytest.approx(problem.value, rel=1e-7)


class TestBudgets:
    def test_max_iterations_status(self):
        rng = np.random.default_rng(400)
        obj, lam = random_logistic_problem(rng, 25, 10)
        report = solve(obj, SolverConfig(lam=lam, max_iter=1))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 1

    def test_time_limit_status(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = solve(obj, SolverConfig(lam=1.0, time_limit=1e-12))
        assert report.status is SolveStatus.TIME_LIMIT
        assert report.trace == []

    def test_tie_routes_to_phi_branch(self):
        # ||beta|| == ||phi||: the phi branch must run (<= comparison)
        calls = []

        class Spy(QuadraticObjective):
            def reduced_hessian_operator(self, x, indices):
                calls.append(np.asarray(indices).tolist())
                return super().reduced_hessian_operator(x, indices)

        # x=(1, 0), lam=1: grad=(0.5, 2) gives phi=(1, 0) and beta=(0, 1)
        spy = Spy([1.0, 1.0], [-0.5, 2.0])
        x0 = np.array([1.0, 0.0])
        grad = spy.gradient(x0)
        pair = optimality_measures(x0, grad, 1.0)
        assert pair.beta_norm == pair.phi_norm  # tie by construction
        solve(spy, SolverConfig(lam=1.0, max_iter=1), x0=x0)
        assert calls, "phi branch (reduced Hessian) was not exercised on a tie"


class TestFailureModes:
    def test_lying_oracle_reports_line_search_failure(self):
        class LyingOracle(ObjectiveOracle):
            # gradient promises descent; value is flat with a bump
            @property
            def dim(self):
                return 2

            def value(self, x):
                return 0.0 if np.all(np.asarray(x) == 0.0) else 1.0

            def gradient(self, x):
                return np.array([100.0, 0.0])

            def reduced_hessian_operator(self, x, indices):
                return lambda v: v

        report = solve(LyingOracle(), SolverConfig(lam=1.0))
        assert report.status is SolveStatus.LINE_SEARCH_FAILURE

    def test_lying_oracle_on_phi_path_reports_line_search_failure(self):
        class JumpingOracle(ObjectiveOracle):
            # value jumps off x0 = 1, gradient promises descent; x0 != 0
            # makes beta = 0, so the phi search is the one that must fail
            @property
            def dim(self):
                return 1

            def value(self, x):
                return 0.0 if np.all(np.asarray(x) == 1.0) else 1.0

            def gradient(self, x):
                return np.array([-10.0])

            def reduced_hessian_operator(self, x, indices):
                return lambda v: v

        report = solve(JumpingOracle(), SolverConfig(lam=1.0), x0=np.array([1.0]))
        assert report.status is SolveStatus.LINE_SEARCH_FAILURE
        assert report.iterations == 0
        assert_allclose(report.x_final, [1.0])

    def test_non_finite_objective_raises_with_iterate_index(self):
        class DivergentOracle(ObjectiveOracle):
            @property
            def dim(self):
                return 1

            def value(self, x):
                return float("-inf") if np.any(np.asarray(x) != 0.0) else 0.0

            def gradient(self, x):
                return np.array([5.0])

            def reduced_hessian_operator(self, x, indices):
                return lambda v: v

        with pytest.raises(ArithmeticError, match="iteration 0"):
            solve(DivergentOracle(), SolverConfig(lam=1.0))


class UncheckedOracle(ObjectiveOracle):
    """A user oracle that checks nothing and returns a fixed gradient."""

    def __init__(self, grad):
        self.grad = grad

    @property
    def dim(self):
        return 2

    def value(self, x):
        return float(np.sum(np.square(x)))

    def gradient(self, x):
        return self.grad

    def reduced_hessian_operator(self, x, indices):
        return lambda v: v


SOLVERS = [
    pytest.param(lambda oracle, x0: solve(oracle, SolverConfig(lam=1.0), x0=x0), id="farsa"),
    pytest.param(lambda oracle, x0: ista_solve(oracle, 1.0, IstaConfig(), x0=x0), id="ista"),
]


class TestBoundaryChecks:
    @pytest.mark.parametrize("run", SOLVERS)
    @pytest.mark.parametrize(
        "x0, message",
        [(np.array([np.nan, 0.0]), "non-finite"), (np.zeros(3), "length 2")],
        ids=["nan", "wrong-length"],
    )
    def test_bad_x0_rejected(self, run, x0, message):
        with pytest.raises(ValueError, match=message):
            run(UncheckedOracle(np.ones(2)), x0)

    @pytest.mark.parametrize("run", SOLVERS)
    @pytest.mark.parametrize(
        "grad, message",
        [(np.array([np.nan, 0.0]), "non-finite"), (np.ones(3), "length 2")],
        ids=["nan", "wrong-length"],
    )
    def test_bad_gradient_rejected(self, run, grad, message):
        with pytest.raises(ValueError, match=message):
            run(UncheckedOracle(grad), None)


class TestConfigValidation:
    def test_rejects_out_of_range_constants(self):
        with pytest.raises(ValueError, match="lam"):
            SolverConfig(lam=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(lam=1.0, epsilon=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["lam", "epsilon"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{"lam": 1.0, name: value})

    def test_time_limit_rejects_nan_but_not_inf(self):
        with pytest.raises(ValueError, match="time_limit"):
            SolverConfig(lam=1.0, time_limit=math.nan)
        assert SolverConfig(lam=1.0, time_limit=math.inf).time_limit == math.inf

    def test_defaults_are_the_production_values(self):
        config = SolverConfig(lam=0.1)
        assert config.epsilon == 1e-6
        assert config.max_iter == 1000
        assert config.time_limit == 600.0


def record_value_points(oracle) -> list:
    """Make ``oracle.value`` record a copy of every point it is called at."""
    points = []
    value = oracle.value

    def recording(x):
        points.append(np.array(x, copy=True))
        return value(x)

    oracle.value = recording
    return points


def back_to_back_repeats(points) -> list:
    """Indices i at which points[i + 1] equals points[i]."""
    return [i for i in range(len(points) - 1) if np.array_equal(points[i], points[i + 1])]


class TestSingleEvaluation:
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_evaluates_each_accepted_point_once(self, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        points = record_value_points(oracle)
        report = solve(oracle, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        # the only repeats are each later search's own F(x) at the point the
        # previous search accepted
        repeats = back_to_back_repeats(points)
        assert len(repeats) == report.iterations - 1
        accepted = [points[i] for i in repeats] + [report.x_final]
        fresh = lambda x: oracle.value(x) + lam * float(np.sum(np.abs(x)))
        assert [r.objective for r in report.trace] == [fresh(x) for x in accepted]
        assert report.objective == fresh(report.x_final)

    @pytest.mark.parametrize("seed", range(3))
    def test_ista_evaluates_each_point_once(self, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        points = record_value_points(oracle)
        report = ista_solve(oracle, lam, IstaConfig())
        assert report.status is SolveStatus.OPTIMAL
        assert back_to_back_repeats(points) == []
        fresh = oracle.value(report.x_final) + lam * float(np.sum(np.abs(report.x_final)))
        assert report.objective == fresh
