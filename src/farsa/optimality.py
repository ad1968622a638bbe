"""Optimality measures and the shrink step.

The two measures split stationarity violation between the zero variables
(``beta``) and the nonzero variables (``phi``): at a minimizer of
f(x) + lam*||x||_1 both vanish.  Both are halves of one vector: with s the
full-step shrink (ISTA) displacement, ``beta = -s`` where ``x == 0`` and
``phi = -s`` elsewhere, so their supports are disjoint and
``s = -(beta + phi)`` componentwise.  ``optimality_measures`` forms -s
itself, in fewer passes than negating ``ista_step``; the two agree bitwise
apart from the sign of a zero entry.  The test suite checks all three
against independent case-table transcriptions.

Zero detection is exact (``x[i] == 0``), never tolerance-based: every update
in this package writes exact zeros (projections clamp, the shrink map and
the reduced-direction embeddings write literal 0.0), so sign-based
bookkeeping is well defined.

Inputs are the solver's own float64 vectors; ``solve`` and ``ista_solve``
check the user's x0 and each gradient the oracle returns before they get
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dot

__all__ = [
    "OptimalityPair",
    "optimality_measures",
    "ista_step",
]


@dataclass(frozen=True)
class OptimalityPair:
    """The measures beta(x), phi(x) and their cached l2 norms."""

    beta: np.ndarray
    phi: np.ndarray
    beta_norm: float
    phi_norm: float

    @property
    def max_norm(self) -> float:
        """max{||beta||, ||phi||}: both solvers stop once it is <= epsilon."""
        return max(self.beta_norm, self.phi_norm)


def ista_step(x: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray:
    """Displacement of the unit-step shrink update: shrink(x - g) - x.

    With u = x - g the step is lam - g[i] where u[i] < -lam, -x[i] where
    u[i] in [-lam, lam], and -g[i] - lam where u[i] > lam.
    """
    u = x - grad
    step = np.negative(x)
    np.subtract(lam, grad, out=step, where=u < -lam)
    # fl(-lam - g) == fl(-g - lam): both round the same real number
    np.subtract(-lam, grad, out=step, where=u > lam)
    return step


def optimality_measures(x: np.ndarray, grad: np.ndarray, lam: float) -> OptimalityPair:
    """Compute beta(x) and phi(x) with their l2 norms.

    For x[i] == 0, beta[i] is g[i]+lam when that is negative, g[i]-lam when
    that is positive, and 0 when |g[i]| <= lam.  For x[i] != 0,

        phi[i] = min{g+lam, max{x, g-lam}}[i]   if x[i] > 0 and (g+lam)[i] > 0
               = max{g-lam, min{x, g+lam}}[i]   if x[i] < 0 and (g-lam)[i] < 0
               = (g + lam*sgn(x))[i]            otherwise.

    Both are the negated shrink step on their half of the split.
    """
    # -ista_step with u = x - g: g + lam where u > lam, g - lam where
    # u < -lam, and x elsewhere
    u = x - grad
    measure = np.where(u > lam, grad + lam, x)
    np.subtract(grad, lam, out=measure, where=u < -lam)
    del u  # not held beside beta, which would add an n-vector to the peak
    beta = np.where(x == 0.0, measure, 0.0)
    measure -= beta  # phi, exactly: measure - measure is 0.0 on the zeros
    return OptimalityPair(
        beta=beta,
        phi=measure,
        beta_norm=math.sqrt(dot(beta, beta)),
        phi_norm=math.sqrt(dot(measure, measure)),
    )

