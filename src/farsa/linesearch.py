"""Orthant projection and the two backtracking line searches.

Both searches take the step d and its Armijo slope from the caller (the
solver builds both) and only backtrack along d.  They run on the step's
coordinates: the solver hands them x and d restricted to the index set the
step moves (the support of phi, or the zeros a beta step frees), and an
objective that prices a point by those coordinates alone, equal to x
elsewhere.  Every test below is elementwise, so it gives the same answer
on the restriction as on the full vectors.  They end in one Armijo
loop, ``_armijo``: the first j with
F(x + XI^j d) <= F(x) + ETA * XI^j * slope + noise.  The beta-search is that
loop from j = 0.  The phi-search first backtracks along the projected path:
while the trial point leaves the orthant of the current iterate, plain
decrease of the objective is enough (support shrinkage pays for itself);
once trial points stay in the orthant, it tries the largest in-orthant
step, then hands off to the Armijo loop at its current j.  Both searches
write exact zeros for any component they send to zero, so the sign-based
bookkeeping elsewhere stays exact.

Every trial point goes through ``_accept``: F(y) <= F(x) + change + noise,
with ``change`` the Armijo term (zero for the plain-decrease test) and
``noise`` the allowance below.  It is the one place that raises
LineSearchError: past MAX_BACKTRACKS, or at a trial point equal to x (only
Armijo trials can reach one; every other trial differs from x in a sign or
a zero).

Each search must evaluate F(x) first, with the x it was handed, and return
right after evaluating the accepted point: the solver's objective answers
F(x) for that array from the oracle's value at x without a product, and the
bench tracer reads the first value as F(x) and the last as F at the
accepted point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LineSearchError",
    "SearchResult",
    "project_orthant",
    "orthant_boundary_step",
    "linesearch_phi",
    "linesearch_beta",
    "MAX_BACKTRACKS",
    "ETA",
    "XI",
]

# Armijo sufficient-decrease fraction and backtracking factor (the paper's
# eta and xi).
ETA = 1e-2
XI = 0.5

# With XI = 0.5 this allows steps down to ~1e-30; reaching it, or reaching a
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


@dataclass(frozen=True)
class SearchResult:
    """The accepted point, F there, and how the search reached it.

    ``next_x`` has the coordinates of the ``x`` the search was handed.

    ``added`` marks a step that changed the sign pattern of x (the paper's
    ADD step).
    """

    next_x: np.ndarray
    value: float
    backtracks: int
    step_size: float
    added: bool


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


def _accept(
    f_total: Objective,
    f_x: float,
    x: np.ndarray,
    y: np.ndarray,
    change: float,
    step: float,
    j: int,
    added: bool,
) -> SearchResult | None:
    """The result at y if F(y) <= F(x) + change + noise, else None.

    Raises LineSearchError, without evaluating F, past MAX_BACKTRACKS or
    when y equals x: either means F and its gradient disagree.
    """
    if j > MAX_BACKTRACKS:
        raise LineSearchError(
            f"line search failed: no acceptable step after {j} backtracks"
        )
    if (y == x).all():
        raise LineSearchError(
            f"line search failed: trial step {step:.3g} does not move the "
            f"iterate after {j} backtracks"
        )
    value = f_total(y)
    if value <= f_x + change + _EVAL_NOISE * (1.0 + abs(f_x)):
        return SearchResult(y, value, j, step, added)
    return None


def _armijo(
    f_total: Objective, f_x: float, x: np.ndarray, d: np.ndarray, slope: float, j: int,
    y: np.ndarray | None = None,
) -> SearchResult:
    """Armijo backtracking along d from x + XI^j d, or from ``y`` if the caller has it."""
    while True:
        step = XI**j
        if y is None:
            y = x + step * d
        change = ETA * step * slope
        result = _accept(f_total, f_x, x, y, change, step, j, added=False)
        if result is not None:
            return result
        j += 1
        y = None


def linesearch_phi(f_total: Objective, x: np.ndarray, d: np.ndarray, slope: float) -> SearchResult:
    """Projected backtracking search for a direction on the current support.

    ``f_total`` evaluates the full objective F (smooth part plus l1 term) at
    the point whose coordinates ``x`` and ``d`` hold; ``slope`` is the derivative of F along ``d`` inside
    the orthant of ``x``, for the boundary step's and the Armijo tests.
    ``added`` is true exactly when the step changes the sign pattern of
    ``x``: Armijo trials start at the first j whose point keeps every sign,
    and shorter steps along the same ray keep them.  Raises LineSearchError as
    ``_accept`` does.
    """
    f_x = f_total(x)
    sign_x = np.sign(x)
    full = x + d
    if (np.sign(full) == sign_x).all():
        # the full step keeps every sign, so its projection is x + d itself
        return _armijo(f_total, f_x, x, d, slope, 0, full)

    j = 0
    y = project_orthant(full, x)
    while not (np.sign(y) == sign_x).all():
        result = _accept(f_total, f_x, x, y, 0.0, XI**j, j, added=True)
        if result is not None:
            return result
        j += 1
        y = project_orthant(x + XI**j * d, x)

    if j != 0:
        alpha_b, binding = orthant_boundary_step(x, d)
        y_b = x + alpha_b * d
        y_b[binding] = 0.0
        result = _accept(f_total, f_x, x, y_b, ETA * alpha_b * slope, alpha_b, j, added=True)
        if result is not None:
            return result
    # at j = 0, x + d left a sign only at a zero of x (the projection kept
    # it zero); the Armijo loop tries x + d itself
    return _armijo(f_total, f_x, x, d, slope, j)


def linesearch_beta(f_total: Objective, x: np.ndarray, d: np.ndarray, slope: float) -> SearchResult:
    """Armijo backtracking for a direction freeing zero variables.

    Returns the first j >= 0 with
    F(x + XI^j d) <= F(x) + ETA * XI^j * slope + noise.  Raises
    LineSearchError as ``_accept`` does.
    """
    return _armijo(f_total, f_total(x), x, d, slope, 0, x + d)
