"""Outer loop of the reduced-space active-set solver.

``solve`` is the paper's one loop.  Each iteration computes the optimality
measures beta and phi and terminates once max{||beta||, ||phi||} <= epsilon.
Otherwise it takes one of two branches: when ||beta|| <= ||phi|| (the
paper's gamma fixed at 1) a phi-iteration optimizes over the support of phi
with a reduced Newton step where the oracle's operator carries its exact
inverse (small dense subspaces), Newton-CG otherwise, and the projected line
search; else a beta-iteration frees zero variables along a safeguarded
scaled direction with Armijo backtracking.  Each branch builds its whole
step here: the direction d, the Armijo slope (g^T d over the support for
phi, -||d||^2 for beta) and, from the search's outcome, the kind of
iteration; the searches only backtrack along d.  A phi slope that is not
negative raises ArithmeticError.  A Newton step records 0 CG iterations, as
a beta step does.  A step moves x only on its index set I (the support of
phi, or the zeros beta frees), so each search is handed x_I, d_I and F
priced on I (``_trial_objective``, from the oracle's ``trial_values``), and
the accepted x_I is written into x.  Both branches end the same way: the
step norm, the new iterate and one ``IterationRecord``.  Each record's
objective, and the report's, is the value the line search computed at the
point it accepted; F is evaluated afresh only for a solve that takes no
iteration.

The adaptive scale factors are built from the norm of the most recent step
of the same type: the CG step cap is max{1e-3, min{1e3, 10*prev}} and the
freeing-direction length is max{1e-5, min{1, prev}}, with both previous
norms starting at +inf so the first step of each type is not truncated.

``cg_solve``, the two line searches and ``optimality_measures`` are called
through this module's names, which is where a tracer can wrap them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import as_vector, dot
from .linesearch import LineSearchError, linesearch_beta, linesearch_phi
from .objectives import ObjectiveOracle
from .optimality import optimality_measures
from .subproblem import cg_solve

__all__ = [
    "SolverConfig",
    "IterationType",
    "IterationRecord",
    "SolveStatus",
    "SolveReport",
    "solve",
]


def _check_positive(name: str, value: float) -> float:
    """value, if it is positive and finite; else ValueError naming it."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


def _check_time_limit(name: str, value: float) -> float:
    """value, if it is positive; else ValueError naming it.  inf means no
    limit; NaN is refused, as it would never stop a solve for time."""
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


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
        _check_positive("lam", self.lam)
        _check_positive("epsilon", self.epsilon)
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        _check_time_limit("time_limit", self.time_limit)


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
    trace: list[IterationRecord]
    iterations: int

    @property
    def percent_zeros(self) -> float:
        return 100.0 * float(np.count_nonzero(self.x_final == 0.0)) / self.x_final.size

    @property
    def phi_iterations(self) -> int:
        return sum(
            1 for r in self.trace if r.type in (IterationType.PHI_SD, IterationType.PHI_ADD)
        )

    @property
    def beta_iterations(self) -> int:
        return sum(1 for r in self.trace if r.type is IterationType.BETA)


def _total_objective(f_value: float, lam: float, x: np.ndarray) -> float:
    """F(x) = f(x) + lam*||x||_1, given f(x)."""
    return f_value + lam * float(np.add.reduce(np.abs(x)))


def _trial_objective(oracle, lam: float, x: np.ndarray, indices: np.ndarray, x_reduced: np.ndarray):
    """The map z_I -> F(z) over the points z equal to x off ``indices``.

    At ``x_reduced`` itself, the array the search was handed, it returns
    F(x) from the oracle's f(x).  Other points are priced by the oracle's
    ``trial_values``, with the l1 term of x updated on ``indices`` only.
    """
    f_x, value = oracle.trial_values(x, indices)
    l1_x = float(np.add.reduce(np.abs(x)))
    f_total_x = f_x + lam * l1_x  # as _total_objective sums it
    l1_rest = l1_x - float(np.add.reduce(np.abs(x_reduced)))

    def f_total(z_reduced: np.ndarray) -> float:
        if z_reduced is x_reduced:
            return f_total_x
        return value(z_reduced) + lam * (l1_rest + float(np.add.reduce(np.abs(z_reduced))))

    return f_total


def _clamp(value: float, lower: float, upper: float) -> float:
    return max(lower, min(upper, value))


def _initial_point(x0, n: int) -> np.ndarray:
    """A checked float64 copy of x0 (length n >= 1, finite), or the zero vector."""
    if n == 0:
        raise ValueError("the problem has no variables (oracle.dim == 0)")
    if x0 is None:
        return np.zeros(n)
    return as_vector(x0, n).copy()


def solve(oracle: ObjectiveOracle, config: SolverConfig, x0=None) -> SolveReport:
    """Minimize f(x) + lam*||x||_1 from x0 (default: the zero vector).

    x0 and every gradient the oracle returns are checked (length n, finite)
    here; the layers below trust the vectors they are given.
    """
    n, lam = oracle.dim, config.lam
    x = _initial_point(x0, n)

    started = time.perf_counter()
    last_phi_step_norm = last_beta_step_norm = math.inf
    trace: list[IterationRecord] = []
    while True:
        if time.perf_counter() - started > config.time_limit:
            status = SolveStatus.TIME_LIMIT
            break
        grad = as_vector(oracle.gradient(x), n)
        pair = optimality_measures(x, grad, lam)
        if pair.max_norm <= config.epsilon:
            status = SolveStatus.OPTIMAL
            break
        if len(trace) >= config.max_iter:
            status = SolveStatus.MAX_ITERATIONS
            break
        try:
            # the paper's gamma = 1: a tie takes the phi branch
            if pair.beta_norm <= pair.phi_norm:
                # phi: a reduced Newton or Newton-CG step over the support of
                # phi, then the projected search
                indices = pair.phi.nonzero()[0]
                x_reduced = x[indices]
                g_reduced = grad[indices] + lam * np.sign(x_reduced)
                hvp = oracle.reduced_hessian_operator(x, indices)
                inverse = getattr(hvp, "inverse", None)
                if inverse is None:
                    step_cap = _clamp(10.0 * last_phi_step_norm, 1e-3, 1e3)
                    outcome = cg_solve(hvp, g_reduced, x_reduced, step_cap)
                    d, cg_iterations = outcome.direction, outcome.iterations
                    del outcome
                else:
                    # the oracle's exact inverse: the Newton step, no CG
                    d, cg_iterations = inverse(-g_reduced), 0
                slope = dot(g_reduced, d)
                # "not <" also refuses a NaN slope, e.g. from a non-finite inverse
                if not slope < 0.0:
                    raise ArithmeticError(
                        f"phi direction does not descend at iteration {len(trace)}: "
                        f"g^T d = {slope}"
                    )
                # free the branch's arrays now, as a function return would:
                # held into the search they raise a solve's peak memory
                del g_reduced, hvp, inverse
                search = linesearch_phi
                kind = IterationType.PHI_SD
            else:
                # beta: free zero variables along the safeguarded scaled direction
                indices = pair.beta.nonzero()[0]
                x_reduced = x[indices]
                scale = _clamp(last_beta_step_norm, 1e-5, 1.0)
                d = -scale * pair.beta[indices] / pair.beta_norm
                slope = -dot(d, d)
                search = linesearch_beta
                kind = IterationType.BETA
                cg_iterations = 0
            f_total = _trial_objective(oracle, lam, x, indices, x_reduced)
            result = search(f_total, x_reduced, d, slope)
            del d, f_total
        except LineSearchError:
            status = SolveStatus.LINE_SEARCH_FAILURE
            break
        if not np.isfinite(result.value):
            raise ArithmeticError(f"objective became non-finite at iteration {len(trace)}")
        if result.added:  # only the phi search changes signs
            kind = IterationType.PHI_ADD
        step = result.next_x - x_reduced
        step_norm = math.sqrt(dot(step, step))
        if kind is IterationType.BETA:
            last_beta_step_norm = step_norm
        else:
            last_phi_step_norm = step_norm
        # the step moves only x's entries on indices; a new array, since the
        # oracle may keep the ones it was handed
        x = x.copy()
        x[indices] = result.next_x
        del indices, x_reduced, step
        trace.append(
            IterationRecord(
                k=len(trace),
                type=kind,
                objective=result.value,
                beta_norm=pair.beta_norm,
                phi_norm=pair.phi_norm,
                support_size=int(np.count_nonzero(x)),
                cg_iterations=cg_iterations,
                step_size=result.step_size,
                elapsed=time.perf_counter() - started,
            )
        )

    return SolveReport(
        status=status,
        x_final=x,
        objective=trace[-1].objective if trace else _total_objective(oracle.value(x), lam, x),
        trace=trace,
        iterations=len(trace),
    )
