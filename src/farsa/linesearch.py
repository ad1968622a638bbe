"""Orthant projection and the two backtracking line searches.

The phi-search is a projected backtracking search: while the trial point
leaves the orthant of the current iterate, plain decrease of the objective
is enough (support shrinkage pays for itself); once trial points stay in the
orthant, it first tries the largest in-orthant step and then falls back to
standard Armijo backtracking.  The beta-search is plain Armijo backtracking
against -eta * step * ||d||^2.

Both searches write exact zeros for any component they send to zero, so the
sign-based bookkeeping elsewhere stays exact.

Every trial point of both searches goes through one acceptance test,
``_accepts``: F(y) <= F(x) + change + noise, with ``change`` the Armijo term
(zero for the phi-search's plain-decrease test) and ``noise`` the
evaluation-noise allowance below.  Neither search returns a null step: a
trial point equal to the current iterate raises LineSearchError.  Only
Armijo trials can reach one; every other trial point differs from x in a
sign or a zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "LineSearchError",
    "PhiOutcome",
    "PhiSearchResult",
    "BetaSearchResult",
    "project_orthant",
    "orthant_boundary_step",
    "linesearch_phi",
    "linesearch_beta",
    "MAX_BACKTRACKS",
]

# With xi = 0.5 this allows steps down to ~1e-30; reaching it, or reaching a
# trial point that rounds back to x (from about j = 53 on when |d| ~ |x|),
# means the objective and gradient are inconsistent, not that more halving
# would help.
MAX_BACKTRACKS = 100

# Evaluation-noise allowance on every acceptance test of both searches,
# scaled by |F(x)|.  Near a minimizer the true per-step decrease falls below
# the roundoff in evaluating F; without the allowance a search rejects real
# progress on noise and backtracks until the objective stops changing.  The
# allowance would then accept a null step, since F(x) <= F(x) + noise, so a
# trial point equal to x is rejected before the test.  32 ulps covers
# pairwise-summation noise of the objectives at stake while staying far
# below any meaningful decrease.
_EVAL_NOISE = 32.0 * np.finfo(np.float64).eps

Objective = Callable[[np.ndarray], float]


class LineSearchError(RuntimeError):
    """Raised when a search exceeds the backtracking budget or reaches a
    trial point that does not move the iterate."""


class PhiOutcome(Enum):
    ADD = "add"
    SUFFICIENT_DECREASE = "sufficient_decrease"


@dataclass(frozen=True)
class PhiSearchResult:
    next_x: np.ndarray
    outcome: PhiOutcome
    backtracks: int
    step_size: float


@dataclass(frozen=True)
class BetaSearchResult:
    next_x: np.ndarray
    backtracks: int
    step_size: float


def project_orthant(y: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    """Project y onto the closed orthant inhabited by x_ref.

    Componentwise: max{0, y} where x_ref > 0, min{0, y} where x_ref < 0,
    and exact 0 where x_ref == 0.
    """
    return np.where(
        x_ref > 0.0,
        np.maximum(0.0, y),
        np.where(x_ref < 0.0, np.minimum(0.0, y), 0.0),
    )


def orthant_boundary_step(x: np.ndarray, d: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest step along d keeping sgn(x + alpha*d) == sgn(x).

    Returns (alpha, binding) where binding holds the indices whose ratio
    -x[i]/d[i] attains the minimum; those components must be written as
    exact zeros at x + alpha*d.  Requires that some component crosses at
    the full step.
    """
    s_x = np.sign(x)
    crossing = (d != 0.0) & (s_x != 0.0) & (np.sign(x + d) != s_x)
    if not np.any(crossing):
        raise ValueError("no component of x + d leaves the orthant of x")
    ratios = np.full_like(x, np.inf)
    ratios[crossing] = -x[crossing] / d[crossing]
    alpha = float(ratios[crossing].min())
    binding = np.flatnonzero(ratios == alpha)
    return alpha, binding


def _signs_match(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(np.sign(a), np.sign(b)))


def _accepts(
    f_total: Objective,
    f_x: float,
    x: np.ndarray,
    y: np.ndarray,
    change: float,
    step: float,
    j: int,
) -> bool:
    """The acceptance test of both searches: F(y) <= F(x) + change + noise.

    Raises LineSearchError, without evaluating F, when y equals x: the step
    is too small to move the iterate, which means F and its gradient
    disagree.
    """
    if np.array_equal(y, x):
        raise LineSearchError(
            f"line search failed: trial step {step:.3g} does not move the "
            f"iterate after {j} backtracks"
        )
    return f_total(y) <= f_x + change + _EVAL_NOISE * (1.0 + abs(f_x))


def linesearch_phi(
    f_total: Objective,
    x: np.ndarray,
    d: np.ndarray,
    indices: np.ndarray,
    grad_total_reduced: np.ndarray,
    eta: float,
    xi: float,
) -> PhiSearchResult:
    """Projected backtracking search for a direction on the current support.

    ``f_total`` evaluates the full objective F (smooth part plus l1 term) at
    a full-space point; ``grad_total_reduced`` is the gradient of F restricted
    to ``indices`` (smooth inside the orthant), used for the Armijo slope.

    Raises LineSearchError when the Armijo backtracking reaches a trial point
    equal to ``x`` (a step too small to move the iterate) or exceeds
    MAX_BACKTRACKS, since either means F and its gradient disagree.
    """
    slope = float(grad_total_reduced @ d[indices])
    f_x = f_total(x)
    sign_x = np.sign(x)

    j = 0
    y = project_orthant(x + d, x)
    while not _signs_match(y, sign_x):
        if _accepts(f_total, f_x, x, y, 0.0, xi**j, j):
            return PhiSearchResult(y, PhiOutcome.ADD, j, xi**j)
        j += 1
        if j > MAX_BACKTRACKS:
            raise LineSearchError(
                f"line search failed: {j} backtracks without leaving the "
                "projected-decrease loop"
            )
        y = project_orthant(x + xi**j * d, x)

    if j != 0:
        alpha_b, binding = orthant_boundary_step(x, d)
        y_b = x + alpha_b * d
        y_b[binding] = 0.0
        if _accepts(f_total, f_x, x, y_b, eta * alpha_b * slope, alpha_b, j):
            return PhiSearchResult(y_b, PhiOutcome.ADD, j, alpha_b)
        y = x + xi**j * d

    while True:
        if _accepts(f_total, f_x, x, y, eta * xi**j * slope, xi**j, j):
            return PhiSearchResult(y, PhiOutcome.SUFFICIENT_DECREASE, j, xi**j)
        j += 1
        if j > MAX_BACKTRACKS:
            raise LineSearchError(
                f"line search failed: Armijo condition not met after {j} backtracks"
            )
        y = x + xi**j * d


def linesearch_beta(
    f_total: Objective, x: np.ndarray, d: np.ndarray, eta: float, xi: float
) -> BetaSearchResult:
    """Armijo backtracking for a direction freeing zero variables.

    Returns the first j >= 0 with
    F(x + xi^j d) <= F(x) - eta * xi^j * ||d||^2 + noise.  Raises
    LineSearchError when a trial point equals ``x`` or the search exceeds
    MAX_BACKTRACKS.
    """
    f_x = f_total(x)
    d_norm_sq = float(d @ d)
    j = 0
    while True:
        step = xi**j
        y = x + step * d
        if _accepts(f_total, f_x, x, y, -eta * step * d_norm_sq, step, j):
            return BetaSearchResult(y, j, step)
        j += 1
        if j > MAX_BACKTRACKS:
            raise LineSearchError(
                f"line search failed: descent condition not met after {j} backtracks"
            )
