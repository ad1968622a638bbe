"""Proximal-gradient (ISTA) baseline solver.

Serves as the independent reference for the main solver: it shares the same
termination measure (max{||beta||, ||phi||} <= epsilon) so final objectives
are directly comparable.  With unit step the update displacement equals
-(beta + phi), which ties the shrink map to the optimality measures.
"""

from __future__ import annotations

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
    """Step-size rule (fixed positive value or "backtracking") and budgets."""

    step_size: float | str = "backtracking"
    epsilon: float = 1e-6
    max_iter: int = 100_000

    def __post_init__(self):
        if isinstance(self.step_size, str):
            if self.step_size != "backtracking":
                raise ValueError("step_size must be positive or 'backtracking'")
        elif self.step_size <= 0:
            raise ValueError("step_size must be positive or 'backtracking'")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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
    t by 10% for the next iteration; a fixed step skips the test.  x0 and
    every gradient are checked as in ``solve``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = oracle.dim
    x = _initial_point(x0, n)

    backtracking = config.step_size == "backtracking"
    t = 1.0 if backtracking else float(config.step_size)
    started = perf_counter()
    status = SolveStatus.MAX_ITERATIONS
    iterations = 0
    for k in range(config.max_iter + 1):
        grad = as_vector(oracle.gradient(x), n)
        pair = optimality_measures(x, grad, lam)
        if is_optimal(pair, config.epsilon):
            status = SolveStatus.OPTIMAL
            iterations = k
            break
        if k == config.max_iter:
            iterations = k
            break
        if backtracking:
            f_x = oracle.value(x)
            # roundoff allowance: near the optimum both sides of the test
            # agree to cancellation noise, and halving t on ulp phantoms
            # would stall the iteration
            slack = 1e-12 * (1.0 + abs(f_x))
            while True:
                x_next = shrink(x - t * grad, t * lam)
                diff = x_next - x
                bound = f_x + float(grad @ diff) + float(diff @ diff) / (2.0 * t)
                if oracle.value(x_next) <= bound + slack:
                    break
                t *= _BACKTRACK_FACTOR
                if t < _MIN_STEP:
                    raise ArithmeticError(
                        f"backtracking step vanished at iteration {k}"
                    )
            x = x_next
            t *= _GROWTH_FACTOR
        else:
            x = shrink(x - t * grad, t * lam)
        if not np.isfinite(x).all():
            raise ArithmeticError(f"iterate became non-finite at iteration {k}")

    objective = oracle.value(x) + lam * float(np.sum(np.abs(x)))
    return SolveReport(
        status=status,
        x_final=x,
        objective=objective,
        percent_zeros=100.0 * float(np.count_nonzero(x == 0.0)) / n,
        trace=[],
        total_time=perf_counter() - started,
        iterations=iterations,
    )
