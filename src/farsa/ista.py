"""Proximal-gradient (ISTA) baseline solver.

Serves as the independent reference for the main solver: it shares the same
termination measure (max{||beta||, ||phi||} <= epsilon) so final objectives
are directly comparable.  It steps with ``optimality.ista_step``, the shrink
kernel the measures negate: with unit step the displacement is
-(beta + phi).  Its step size t starts at 1 and only ever halves.  Every
t <= 1/L passes the backtracking test, with L the Lipschitz constant of
grad f, so a whole solve backtracks at most about log2(L) + 1 times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, dot
from .objectives import ObjectiveOracle
from .optimality import ista_step, optimality_measures
from .solver import SolveReport, SolveStatus, _check_positive, _initial_point, _total_objective

__all__ = ["IstaConfig", "ista_solve"]

_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-20


@dataclass(frozen=True)
class IstaConfig:
    """Termination tolerance and iteration budget; the step size only halves."""

    epsilon: float = 1e-6
    max_iter: int = 100_000

    def __post_init__(self):
        _check_positive("epsilon", self.epsilon)
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


def ista_solve(oracle: ObjectiveOracle, lam: float, config: IstaConfig, x0=None) -> SolveReport:
    """Iterate x <- x + ista_step(x, t*grad f(x), t*lam) until optimal.

    That step is the soft-threshold update shrink(x - t*grad, t*lam) - x,
    with exact zeros wherever the threshold zeroes x.

    t starts at 1.  Backtracking halves it until the quadratic upper bound
    f(x+) <= f(x) + grad^T (x+ - x) + ||x+ - x||^2 / (2t) holds, and the
    next iteration starts from the accepted t: t only ever halves, as in
    Beck & Teboulle's backtracking with a nondecreasing Lipschitz estimate
    L = 1/t.  f is evaluated once per trial point: the accepted point's
    value is the next iteration's f(x) and, with the l1 term, the final
    objective.  ``lam`` (positive, finite), x0 and every gradient are
    checked as in ``solve``.
    """
    _check_positive("lam", lam)
    n = oracle.dim
    x = _initial_point(x0, n)
    f_x = oracle.value(x)

    t = 1.0
    status = SolveStatus.MAX_ITERATIONS
    for k in range(config.max_iter + 1):
        grad = as_vector(oracle.gradient(x), n)
        pair = optimality_measures(x, grad, lam)
        if pair.max_norm <= config.epsilon:
            status = SolveStatus.OPTIMAL
            break
        if k == config.max_iter:
            break
        # roundoff allowance: near the optimum both sides of the test agree
        # to cancellation noise, and halving t on ulp phantoms would stall
        # the iteration
        slack = 1e-12 * (1.0 + abs(f_x))
        while True:
            diff = ista_step(x, t * grad, t * lam)
            x_next = x + diff
            bound = f_x + dot(grad, diff) + dot(diff, diff) / (2.0 * t)
            f_next = oracle.value(x_next)
            if f_next <= bound + slack:
                break
            t *= _BACKTRACK_FACTOR
            if t < _MIN_STEP:
                raise ArithmeticError(f"backtracking step vanished at iteration {k}")
        x, f_x = x_next, f_next
        if not np.isfinite(x).all():
            raise ArithmeticError(f"iterate became non-finite at iteration {k}")

    return SolveReport(
        status=status,
        x_final=x,
        objective=_total_objective(f_x, lam, x),
        trace=[],
        iterations=k,
    )
