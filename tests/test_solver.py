"""Outer solver loop: closed forms, trace invariants, budgets, failure modes."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa import (
    IterationType,
    LogisticObjective,
    SparseMatrix,
    SolverConfig,
    SolveStatus,
    ista_solve,
    IstaConfig,
    solve,
)
from farsa import linalg, objectives, solver
from farsa.objectives import HESSIAN_SHIFT, ObjectiveOracle
from farsa.optimality import optimality_measures
from farsa.solver import _clamp
from problems import (
    QuadraticObjective,
    check_records,
    quadratic_l1_minimizer,
    random_logistic_problem,
    random_quadratic,
)


def checked_solve(oracle, config, x0=None):
    """``farsa.solve``, with every record of its report checked (``check_records``)."""
    report = solve(oracle, config, x0)
    check_records(report)
    return report


class TestSoftThresholdQuadratic:
    def test_converges_to_closed_form(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = checked_solve(obj, SolverConfig(lam=1.0, epsilon=1e-12))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations <= 5
        assert_allclose(report.x_final, [2.0], atol=1e-12)
        pair = optimality_measures(
            report.x_final, obj.gradient(report.x_final), 1.0
        )
        assert max(pair.beta_norm, pair.phi_norm) <= 1e-12

    def test_optimal_start_returns_immediately(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = checked_solve(obj, SolverConfig(lam=1.0), x0=np.array([2.0]))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations == 0
        assert report.trace == []


class TestAdaptiveScales:
    def test_phi_step_cap_clamps(self):
        assert _clamp(10.0 * 1e-9, 1e-3, 1e3) == 1e-3
        assert _clamp(10.0 * 1e9, 1e-3, 1e3) == 1e3
        assert _clamp(10.0 * math.inf, 1e-3, 1e3) == 1e3
        assert _clamp(10.0 * 0.05, 1e-3, 1e3) == 0.5

    def test_beta_scale_clamps(self):
        assert _clamp(1e-9, 1e-5, 1.0) == 1e-5
        assert _clamp(7.0, 1e-5, 1.0) == 1.0
        assert _clamp(math.inf, 1e-5, 1.0) == 1.0

    def test_first_beta_direction_has_unit_norm(self):
        # |g_i| > lam at zero: first-ever freeing direction has length
        # exactly delta = 1
        obj = QuadraticObjective([1.0, 1.0, 1.0], [-3.0, 4.0, 0.1])
        report = checked_solve(obj, SolverConfig(lam=1.0, max_iter=1))
        record = report.trace[0]
        assert record.type is IterationType.BETA
        step_len = np.linalg.norm(report.x_final) / record.step_size
        assert step_len == pytest.approx(1.0, rel=1e-12)

    def test_beta_iteration_frees_only_violating_coordinates(self):
        obj = QuadraticObjective([1.0, 1.0, 1.0], [-3.0, 4.0, 0.1])
        pair = optimality_measures(np.zeros(3), obj.gradient(np.zeros(3)), 1.0)
        beta_support = np.flatnonzero(pair.beta)
        report = checked_solve(obj, SolverConfig(lam=1.0, max_iter=1))
        assert report.trace[0].type is IterationType.BETA
        assert np.array_equal(np.flatnonzero(report.x_final), beta_support)
        assert beta_support.tolist() == [0, 1]  # |0.1| <= lam stays zero

    def test_phi_iteration_newton_step_on_separable_quadratic(self):
        # from inside the optimal orthant one phi-iteration lands on the
        # minimizer (up to the Hessian shift)
        obj = QuadraticObjective([1.0], [-3.0])
        report = checked_solve(obj, SolverConfig(lam=1.0, max_iter=1), x0=[1.0])
        record = report.trace[0]
        assert record.type is not IterationType.BETA
        assert record.step_size == 1.0
        assert_allclose(report.x_final, [2.0], atol=1e-7)


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
        report = checked_solve(obj, config)
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
        # the solver asks for one gradient per iterate, so the spy sees x_k
        # and its gradient for every k, the final point included
        seen = []
        gradient = obj.gradient

        def spy(x):
            g = gradient(x)
            seen.append((np.array(x, copy=True), g))
            return g

        obj.gradient = spy
        report = checked_solve(obj, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        assert len(seen) == report.iterations + 1
        types = {r.type for r in report.trace}
        assert IterationType.BETA in types and types - {IterationType.BETA}
        for record, (before, grad), (after, _) in zip(report.trace, seen, seen[1:]):
            if record.type is IterationType.BETA:
                pair = optimality_measures(before, grad, lam)
                freed = (before == 0.0) & (after != 0.0)
                assert np.all(pair.beta[freed] != 0.0)
            else:
                assert np.all(after[before == 0.0] == 0.0)

    def test_solution_matches_ista_baseline_and_closed_form(self):
        rng = np.random.default_rng(300)
        for _ in range(3):
            obj, lam = random_quadratic(rng, 15)
            fast = checked_solve(obj, SolverConfig(lam=lam))
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
        report = checked_solve(obj, SolverConfig(lam=lam, epsilon=1e-8))
        assert report.objective == pytest.approx(problem.value, rel=1e-7)


class TestRecordCheck:
    """``check_records`` refuses a report that breaks one of its invariants."""

    @pytest.fixture(scope="class")
    def report(self):
        oracle, lam = random_logistic_problem(np.random.default_rng(201), 30, 12)
        report = checked_solve(oracle, SolverConfig(lam=lam))
        kinds = {r.type is IterationType.BETA for r in report.trace}
        assert report.status is SolveStatus.OPTIMAL and kinds == {True, False}
        return report

    @staticmethod
    def with_record(report, k, **changes):
        trace = list(report.trace)
        trace[k] = dataclasses.replace(trace[k], **changes)
        return dataclasses.replace(report, trace=trace, objective=trace[-1].objective)

    def test_accepted_objective_raised_by_a_millionth(self, report):
        for k in range(1, report.iterations):
            previous = report.trace[k - 1].objective
            raised = self.with_record(report, k, objective=previous + 1e-6 * abs(previous))
            with pytest.raises(AssertionError, match=f"record {k}: objective rose"):
                check_records(raised)

    def test_branch_inverted(self, report):
        for k, record in enumerate(report.trace):
            flipped = IterationType.PHI_SD if record.type is IterationType.BETA else IterationType.BETA
            with pytest.raises(AssertionError, match=f"record {k}: branch"):
                check_records(self.with_record(report, k, type=flipped, cg_iterations=0))

    def test_report_objective_must_be_the_last_records(self, report):
        last = report.trace[-1].objective
        with pytest.raises(AssertionError, match="last record"):
            check_records(dataclasses.replace(report, objective=last - 1e-6 * abs(last)))


class TestBudgets:
    def test_max_iterations_status(self):
        rng = np.random.default_rng(400)
        obj, lam = random_logistic_problem(rng, 25, 10)
        report = checked_solve(obj, SolverConfig(lam=lam, max_iter=1))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations == 1

    def test_time_limit_status(self):
        obj = QuadraticObjective([1.0], [-3.0])
        report = checked_solve(obj, SolverConfig(lam=1.0, time_limit=1e-12))
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
        checked_solve(spy, SolverConfig(lam=1.0, max_iter=1), x0=x0)
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

        report = checked_solve(LyingOracle(), SolverConfig(lam=1.0))
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

        report = checked_solve(JumpingOracle(), SolverConfig(lam=1.0), x0=np.array([1.0]))
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
            checked_solve(DivergentOracle(), SolverConfig(lam=1.0))


class InverseOracle(QuadraticObjective):
    """The separable quadratic of diagonal (1, 2), whose operator carries
    ``make_inverse(exact)``, given the exact inverse ``exact``."""

    def __init__(self, make_inverse):
        super().__init__([1.0, 2.0], [-3.0, 4.0])
        self.make_inverse = make_inverse

    def reduced_hessian_operator(self, x, indices):
        apply = super().reduced_hessian_operator(x, indices)
        d_reduced = self.diag[indices] + HESSIAN_SHIFT
        apply.inverse = self.make_inverse(lambda b: b / d_reduced)
        return apply


def count_slice_products(monkeypatch, oracle) -> list:
    """Count ``A_I.T @ v`` products with column slices of the design matrix:
    one per reduced Hessian product."""
    count = [0]
    spmv_transpose = objectives.spmv_transpose

    def counting(matrix, v):
        if matrix is not oracle.matrix:
            count[0] += 1
        return spmv_transpose(matrix, v)

    monkeypatch.setattr(objectives, "spmv_transpose", counting)
    return count


class TestNewtonStep:
    """A phi step on an operator with an exact inverse is the Newton step."""

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_newton_steps_make_no_hessian_product(self, monkeypatch, seed):
        # 40 x 60 is held dense, so supports of at most 40 take the Newton step
        # and larger ones run CG
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 40, 60)
        products = count_slice_products(monkeypatch, oracle)
        report = checked_solve(oracle, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        phi = [r.cg_iterations for r in report.trace if r.type is not IterationType.BETA]
        assert phi.count(0) > 0 and len(phi) > phi.count(0)
        # one product per CG iteration, none for a Newton step
        assert products[0] == sum(phi)

    def test_non_finite_inverse_raises(self):
        oracle = InverseOracle(lambda exact: lambda b: np.full_like(b, np.nan))
        with pytest.raises(ArithmeticError):
            checked_solve(oracle, SolverConfig(lam=1.0), x0=[1.0, -1.0])

    def test_ascent_inverse_raises(self):
        # the inverse's sign flipped: inverse(-g) is +H^-1 g, an ascent direction
        oracle = InverseOracle(lambda exact: lambda b: -exact(b))
        with pytest.raises(ArithmeticError, match="does not descend at iteration 0"):
            checked_solve(oracle, SolverConfig(lam=1.0), x0=[1.0, -1.0])


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
    pytest.param(lambda oracle, x0: checked_solve(oracle, SolverConfig(lam=1.0), x0=x0), id="farsa"),
    pytest.param(lambda oracle, x0: ista_solve(oracle, 1.0, IstaConfig(), x0=x0), id="ista"),
]


def count_calls(monkeypatch, owner, name) -> list:
    """Count the calls of ``owner.name`` for the rest of the test."""
    count = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return count


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

    @pytest.mark.parametrize("run", SOLVERS)
    @pytest.mark.parametrize(
        "make_oracle",
        [
            lambda: QuadraticObjective(np.array([]), np.array([])),
            lambda: LogisticObjective(SparseMatrix(2, 0, [0, 0, 0], [], []), [1.0, -1.0]),
        ],
        ids=["quadratic", "logistic"],
    )
    def test_problem_without_variables_rejected(self, run, make_oracle):
        with pytest.raises(ValueError, match="no variables"):
            run(make_oracle(), None)

    def test_vectors_checked_once_per_gradient_and_never_below(self, monkeypatch):
        oracle, lam = random_logistic_problem(np.random.default_rng(0), 60, 20)
        kernel_checks = count_calls(monkeypatch, linalg, "as_vector")
        solver_checks = count_calls(monkeypatch, solver, "as_vector")
        gradients = count_calls(monkeypatch, oracle, "gradient")
        report = checked_solve(oracle, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        assert kernel_checks[0] == 0
        assert solver_checks[0] == gradients[0] == report.iterations + 1


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


# F at a carried point agrees with a fresh oracle's within this many
# relative ulps (the objectives module docstring)
CARRIED_F_ULPS = 4.0


def relative_ulps(value: float, expected: float) -> float:
    return abs(value - expected) / (np.finfo(np.float64).eps * abs(expected))


class TestSingleEvaluation:
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_evaluates_each_accepted_point_once(self, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        points = record_value_points(oracle)
        report = checked_solve(oracle, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        # value is asked once per search, for F(x) at the point the search
        # starts from, which is x0 or the point the previous search accepted
        # and priced; trials are priced by trial_values, not value
        assert len(points) == report.iterations
        assert back_to_back_repeats(points) == []
        assert np.array_equal(points[0], np.zeros(oracle.dim))

        def fresh(x):
            f = LogisticObjective(oracle.matrix, oracle.labels).value(x)
            return f + lam * float(np.sum(np.abs(x)))

        accepted = points[1:] + [report.x_final]
        for record, x in zip(report.trace, accepted):
            assert relative_ulps(record.objective, fresh(x)) <= CARRIED_F_ULPS
        assert relative_ulps(report.objective, fresh(report.x_final)) <= CARRIED_F_ULPS

    @pytest.mark.parametrize("seed", range(3))
    def test_ista_evaluates_each_point_once(self, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        points = record_value_points(oracle)
        report = ista_solve(oracle, lam, IstaConfig())
        assert report.status is SolveStatus.OPTIMAL
        assert back_to_back_repeats(points) == []
        fresh = oracle.value(report.x_final) + lam * float(np.sum(np.abs(report.x_final)))
        assert report.objective == fresh


def count_full_products(monkeypatch, oracle) -> list:
    """Count ``A @ x`` products with the oracle's whole design matrix."""
    count = [0]
    spmv = objectives.spmv

    def counting(matrix, x):
        if matrix is oracle.matrix:
            count[0] += 1
        return spmv(matrix, x)

    monkeypatch.setattr(objectives, "spmv", counting)
    return count


def count_trial_products(monkeypatch, oracle) -> list:
    """Count ``A_I @ v`` products with column slices: one per reduced
    Hessian product and one per trial point a search prices."""
    count = [0]
    spmv = objectives.spmv

    def counting(matrix, x):
        if matrix is not oracle.matrix:
            count[0] += 1
        return spmv(matrix, x)

    monkeypatch.setattr(objectives, "spmv", counting)
    return count


def count_trials(monkeypatch) -> list:
    """Count the trial points the two searches price (every evaluation but F(x))."""
    count = [0]
    for name in ("linesearch_phi", "linesearch_beta"):
        search = getattr(solver, name)

        def counted(f_total, x, *args, _search=search):
            def counting(z):
                count[0] += z is not x
                return f_total(z)

            return _search(counting, x, *args)

        monkeypatch.setattr(solver, name, counted)
    return count


class TestFullProducts:
    """The oracle multiplies by the whole design matrix once per solve."""

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_makes_one_product_per_new_point(self, monkeypatch, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        products = count_full_products(monkeypatch, oracle)
        slice_products = count_trial_products(monkeypatch, oracle)
        hessian_products = count_slice_products(monkeypatch, oracle)
        trials = count_trials(monkeypatch)
        report = checked_solve(oracle, SolverConfig(lam=lam))
        assert report.status is SolveStatus.OPTIMAL
        # one with the whole matrix at x0 for the first gradient; then one
        # product with the step's columns per trial point, and none for a
        # search's F(x), the next gradient or the next Hessian setup, which
        # reuse the margins the accepted trial carried
        assert products[0] == 1
        assert trials[0] >= report.iterations
        assert slice_products[0] == trials[0] + hessian_products[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_ista_makes_one_product_per_value_call(self, monkeypatch, seed):
        oracle, lam = random_logistic_problem(np.random.default_rng(seed), 60, 20)
        points = record_value_points(oracle)
        products = count_full_products(monkeypatch, oracle)
        report = ista_solve(oracle, lam, IstaConfig())
        assert report.status is SolveStatus.OPTIMAL
        assert products[0] == len(points)
