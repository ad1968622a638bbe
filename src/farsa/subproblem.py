"""Reduced-space quadratic model and its conjugate-gradient solver.

The quadratic model at the current iterate is m(d) = g^T d + 0.5 d^T H d
with H the shifted reduced Hessian.  Any direction is acceptable as long as
it descends at least as much as the reference direction (the exact minimizer
of m along -g) and does not increase the model.  CG started from d = 0
satisfies both conditions at every iterate (the test suite checks them
against reference implementations), so it may stop early; the three
early-termination rules below bound the work and the step size.

Only the step-norm cap changes from call to call: the solver adapts it to
the previous phi step.  The rest is fixed by the paper or by the size of the
subspace: the residual rule stops at max{RESIDUAL_REDUCTION * ||r0||,
RESIDUAL_FLOOR}, the orthant rule at max{1e3, 0.1*|I|} sign flips, and the
iteration cap is |I|, where CG is exact in exact arithmetic.

``cg_solve`` is plain CG.  The solver runs it only when the oracle's
operator carries no exact inverse of H
(``ObjectiveOracle.reduced_hessian_operator``); with one, the solver takes
the Newton step -H^-1 g directly.  That step meets both acceptance
conditions too, since (g^T H^-1 g)(g^T H g) >= (g^T g)^2 by Cauchy-Schwarz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .linalg import dot

__all__ = [
    "CgOutcome",
    "CgStopReason",
    "cg_solve",
    "RESIDUAL_REDUCTION",
    "RESIDUAL_FLOOR",
]

# The residual rule's relative reduction and absolute floor.
RESIDUAL_REDUCTION = 1e-1
RESIDUAL_FLOOR = 1e-12

Hvp = Callable[[np.ndarray], np.ndarray]


class CgStopReason(Enum):
    RESIDUAL_REDUCED = "residual_reduced"
    ORTHANT_VIOLATIONS = "orthant_violations"
    STEP_TOO_LARGE = "step_too_large"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class CgOutcome:
    direction: np.ndarray
    iterations: int
    stop_reason: CgStopReason


def _orthant_violations(x_restricted: np.ndarray, x_signs: np.ndarray, d: np.ndarray) -> int:
    """Count components whose sign(x+d) is nonzero and differs from sign(x).

    That is a sign flip or a zero of x that moves off zero; landing on an
    exact zero never counts.
    """
    s_new = np.sign(x_restricted + d)
    return int(np.count_nonzero((s_new != 0.0) & (s_new != x_signs)))


def cg_solve(
    hvp: Hvp,
    g: np.ndarray,
    x_restricted: np.ndarray,
    step_norm_limit: float,
) -> CgOutcome:
    """Run CG on H d = -g from d = 0, stopping at the first satisfied rule.

    After each iterate the rules are checked in a fixed order: residual
    reduced, too many orthant violations, step norm at ``step_norm_limit``.
    Because CG iterate norms grow monotonically from d = 0, the step-norm
    rule acts as an implicit trust region.  Exhausting the iteration cap
    returns MAX_ITERATIONS with the last iterate.
    """
    d = np.zeros(g.shape[0])
    r = -g  # residual b - H d for b = -g
    rr_old = dot(r, r)
    r_norm = math.sqrt(rr_old)
    residual_target = max(RESIDUAL_REDUCTION * r_norm, RESIDUAL_FLOOR)
    violation_threshold = max(1e3, 1e-1 * g.size)

    x_signs = np.sign(x_restricted)
    p = r.copy()  # d and r are updated in place; each p is a new array
    for j in range(1, g.size + 1):
        hp = hvp(p)
        if hp.shape != p.shape:
            raise ValueError(
                f"Hessian product returned shape {hp.shape}, expected {p.shape}"
            )
        curvature = dot(p, hp)
        if curvature <= 0.0:
            raise ArithmeticError(
                f"oracle not positive definite at CG iteration {j}: p^T H p = {curvature}"
            )
        alpha = rr_old / curvature
        d += alpha * p
        r -= alpha * hp
        rr_new = dot(r, r)
        r_norm = math.sqrt(rr_new)
        if not math.isfinite(r_norm):
            raise ArithmeticError(f"non-finite residual at CG iteration {j}")
        if r_norm <= residual_target:
            return CgOutcome(d, j, CgStopReason.RESIDUAL_REDUCED)
        if _orthant_violations(x_restricted, x_signs, d) >= violation_threshold:
            return CgOutcome(d, j, CgStopReason.ORTHANT_VIOLATIONS)
        if math.sqrt(dot(d, d)) >= step_norm_limit:
            return CgOutcome(d, j, CgStopReason.STEP_TOO_LARGE)
        p = r + (rr_new / rr_old) * p
        rr_old = rr_new
    return CgOutcome(d, g.size, CgStopReason.MAX_ITERATIONS)
