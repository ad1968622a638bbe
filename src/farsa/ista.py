"""Proximal-gradient (ISTA) baseline solver.

Serves as the independent reference for the main solver: it shares the same
termination measure (max{||beta||, ||phi||} <= epsilon) so final objectives
are directly comparable.  With unit step the update displacement equals
-(beta + phi), which ties the shrink map to the optimality measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .linalg import as_vector
from .objectives import ObjectiveOracle
from .optimality import is_optimal, optimality_measures
from .solver import SolveReport, SolveStatus, _initial_point

__all__ = ["IstaConfig", "ista_solve", "shrink"]

_BACKTRACK_FACTOR = 0.5
_GROWTH_FACTOR = 1.1
_MIN_STEP = 1e-20


@dataclass(frozen=True)
class IstaConfig:
    """Termination tolerance and iteration budget; the step always backtracks."""

    epsilon: float = 1e-6
    max_iter: int = 100_000

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


def shrink(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft threshold, writing exact zeros inside [-threshold, threshold]."""
    return np.where(
        v > threshold,
        v - threshold,
        np.where(v < -threshold, v + threshold, 0.0),
    )


def ista_solve(oracle: ObjectiveOracle, lam: float, config: IstaConfig, x0=None) -> SolveReport:
    """Iterate x <- shrink(x - t*grad f(x), t*lam) until optimal.

    Backtracking halves t until the quadratic upper bound
    f(x+) <= f(x) + grad^T (x+ - x) + ||x+ - x||^2 / (2t) holds, then grows
    t by 10% for the next iteration.  f is evaluated once per trial point:
    the accepted point's value is the next iteration's f(x) and, with the
    l1 term, the final objective.  ``lam`` (positive, finite), x0 and every
    gradient are checked as in ``solve``.
    """
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    n = oracle.dim
    x = _initial_point(x0, n)
    f_x = oracle.value(x)

    t = 1.0
    started = perf_counter()
    status = SolveStatus.MAX_ITERATIONS
    for k in range(config.max_iter + 1):
        grad = as_vector(oracle.gradient(x), n)
        pair = optimality_measures(x, grad, lam)
        if is_optimal(pair, config.epsilon):
            status = SolveStatus.OPTIMAL
            break
        if k == config.max_iter:
            break
        # roundoff allowance: near the optimum both sides of the test agree
        # to cancellation noise, and halving t on ulp phantoms would stall
        # the iteration
        slack = 1e-12 * (1.0 + abs(f_x))
        while True:
            x_next = shrink(x - t * grad, t * lam)
            diff = x_next - x
            bound = f_x + float(grad @ diff) + float(diff @ diff) / (2.0 * t)
            f_next = oracle.value(x_next)
            if f_next <= bound + slack:
                break
            t *= _BACKTRACK_FACTOR
            if t < _MIN_STEP:
                raise ArithmeticError(f"backtracking step vanished at iteration {k}")
        x, f_x = x_next, f_next
        t *= _GROWTH_FACTOR
        if not np.isfinite(x).all():
            raise ArithmeticError(f"iterate became non-finite at iteration {k}")

    objective = f_x + lam * float(np.sum(np.abs(x)))
    return SolveReport(
        status=status,
        x_final=x,
        objective=objective,
        percent_zeros=100.0 * float(np.count_nonzero(x == 0.0)) / n,
        trace=[],
        total_time=perf_counter() - started,
        iterations=k,
    )
