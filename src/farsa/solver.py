"""Outer loop of the reduced-space active-set solver.

Each iteration computes the optimality measures beta and phi and terminates
once max{||beta||, ||phi||} <= epsilon.  Otherwise it either optimizes over
the current support (phi-iteration: reduced Newton-CG plus the projected
line search) when ||beta|| <= ||phi|| (the paper's gamma fixed at 1), or
frees zero variables (beta-iteration: safeguarded scaled direction plus
Armijo backtracking).  Each record's objective, and the report's, is the
value the line search computed at the point it accepted; F is evaluated
afresh only for a solve that takes no iteration.

The adaptive scale factors are built from the norm of the most recent step
of the same type: the CG step cap is max{1e-3, min{1e3, 10*prev}} and the
freeing-direction length is max{1e-5, min{1, prev}}, with an absent previous
norm treated as +inf so the first step of each type is not truncated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .linalg import as_vector
from .linesearch import LineSearchError, PhiOutcome, linesearch_beta, linesearch_phi
from .objectives import ObjectiveOracle
from .optimality import OptimalityPair, is_optimal, optimality_measures
from .subproblem import CgLimits, cg_solve

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationType",
    "IterationRecord",
    "SolveStatus",
    "SolveReport",
    "solve",
    "phi_iteration",
    "beta_iteration",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; the defaults are the production values.

    ``lam`` has no default: it is the problem, not a tuning knob.  Callers
    solving a loaded dataset conventionally use 1/(number of samples).  The
    line-search constants are fixed in ``linesearch`` (ETA, XI).
    """

    lam: float
    epsilon: float = 1e-6
    max_iter: int = 1000
    time_limit: float = 600.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        # inf means no limit; NaN would never stop the solve for time
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SolverState:
    """Mutable per-solve state: iterate, counters, and last step norms."""

    x: np.ndarray
    k: int = 0
    last_phi_step_norm: float | None = None
    last_beta_step_norm: float | None = None
    started_at: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at


class IterationType(Enum):
    PHI_SD = "phi_sd"
    PHI_ADD = "phi_add"
    BETA = "beta"


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    TIME_LIMIT = "time_limit"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass(frozen=True)
class IterationRecord:
    k: int
    type: IterationType
    objective: float
    beta_norm: float
    phi_norm: float
    support_size: int
    cg_iterations: int
    step_size: float
    elapsed: float


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    x_final: np.ndarray
    objective: float
    percent_zeros: float
    trace: list[IterationRecord]
    total_time: float
    iterations: int

    @property
    def phi_iterations(self) -> int:
        return sum(
            1 for r in self.trace if r.type in (IterationType.PHI_SD, IterationType.PHI_ADD)
        )

    @property
    def beta_iterations(self) -> int:
        return sum(1 for r in self.trace if r.type is IterationType.BETA)


def _total_objective(oracle: ObjectiveOracle, lam: float, x: np.ndarray) -> float:
    return oracle.value(x) + lam * float(np.sum(np.abs(x)))


def _clamp(value: float | None, lower: float, upper: float, scale: float = 1.0) -> float:
    if value is None:
        return upper
    return max(lower, min(upper, scale * value))


def phi_iteration(
    state: SolverState,
    oracle: ObjectiveOracle,
    config: SolverConfig,
    grad: np.ndarray,
    pair: OptimalityPair,
) -> IterationRecord:
    """Reduced Newton-CG step over the support of phi, then projected search."""
    x = state.x
    indices = np.flatnonzero(pair.phi != 0.0)
    g_reduced = (grad + config.lam * np.sign(x))[indices]

    step_cap = _clamp(state.last_phi_step_norm, 1e-3, 1e3, scale=10.0)
    hvp = oracle.reduced_hessian_operator(x, indices)
    outcome = cg_solve(hvp, g_reduced, x[indices], CgLimits(step_cap, indices.size))

    d = np.zeros_like(x)
    d[indices] = outcome.direction
    f_total = partial(_total_objective, oracle, config.lam)
    result = linesearch_phi(f_total, x, d, indices, g_reduced)

    next_x = result.next_x
    state.last_phi_step_norm = float(np.linalg.norm(next_x - x))
    state.x = next_x
    return IterationRecord(
        k=state.k,
        type=IterationType.PHI_ADD if result.outcome is PhiOutcome.ADD else IterationType.PHI_SD,
        objective=result.value,
        beta_norm=pair.beta_norm,
        phi_norm=pair.phi_norm,
        support_size=int(np.count_nonzero(next_x)),
        cg_iterations=outcome.iterations,
        step_size=result.step_size,
        elapsed=state.elapsed(),
    )


def beta_iteration(
    state: SolverState,
    oracle: ObjectiveOracle,
    config: SolverConfig,
    grad: np.ndarray,
    pair: OptimalityPair,
) -> IterationRecord:
    """Free zero variables along the safeguarded scaled beta direction."""
    x = state.x
    indices = np.flatnonzero(pair.beta != 0.0)
    beta_reduced = pair.beta[indices]

    scale = _clamp(state.last_beta_step_norm, 1e-5, 1.0)
    d = np.zeros_like(x)
    d[indices] = -scale * beta_reduced / np.linalg.norm(beta_reduced)

    f_total = partial(_total_objective, oracle, config.lam)
    result = linesearch_beta(f_total, x, d)

    next_x = result.next_x
    state.last_beta_step_norm = float(np.linalg.norm(next_x - x))
    state.x = next_x
    return IterationRecord(
        k=state.k,
        type=IterationType.BETA,
        objective=result.value,
        beta_norm=pair.beta_norm,
        phi_norm=pair.phi_norm,
        support_size=int(np.count_nonzero(next_x)),
        cg_iterations=0,
        step_size=result.step_size,
        elapsed=state.elapsed(),
    )


def _initial_point(x0, n: int) -> np.ndarray:
    """A checked float64 copy of x0 (length n, finite), or the zero vector."""
    if x0 is None:
        return np.zeros(n)
    return as_vector(x0, n).copy()


def solve(oracle: ObjectiveOracle, config: SolverConfig, x0=None) -> SolveReport:
    """Minimize f(x) + lam*||x||_1 from x0 (default: the zero vector).

    x0 and every gradient the oracle returns are checked (length n, finite)
    here; the layers below trust the vectors they are given.
    """
    n = oracle.dim
    state = SolverState(x=_initial_point(x0, n))
    trace: list[IterationRecord] = []
    while True:
        if state.elapsed() > config.time_limit:
            status = SolveStatus.TIME_LIMIT
            break
        grad = as_vector(oracle.gradient(state.x), n)
        pair = optimality_measures(state.x, grad, config.lam)
        if is_optimal(pair, config.epsilon):
            status = SolveStatus.OPTIMAL
            break
        if state.k >= config.max_iter:
            status = SolveStatus.MAX_ITERATIONS
            break
        try:
            # the paper's gamma = 1: a tie takes the phi branch
            if pair.beta_norm <= pair.phi_norm:
                record = phi_iteration(state, oracle, config, grad, pair)
            else:
                record = beta_iteration(state, oracle, config, grad, pair)
        except LineSearchError:
            status = SolveStatus.LINE_SEARCH_FAILURE
            break
        if not np.isfinite(record.objective):
            raise ArithmeticError(
                f"objective became non-finite at iteration {state.k}"
            )
        trace.append(record)
        state.k += 1

    objective = trace[-1].objective if trace else _total_objective(oracle, config.lam, state.x)
    return SolveReport(
        status=status,
        x_final=state.x,
        objective=objective,
        percent_zeros=100.0 * float(np.count_nonzero(state.x == 0.0)) / n,
        trace=trace,
        total_time=state.elapsed(),
        iterations=state.k,
    )
