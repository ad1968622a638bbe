"""Smooth objective oracles: value, gradient, and reduced Hessian action.

The solver never materializes a Hessian.  Each oracle exposes the product
``v -> [H(x)]_{I,I} v + shift*v`` on a chosen index set ``I``, where the
fixed diagonal shift ``HESSIAN_SHIFT`` (1e-8) keeps the reduced system
positive definite.  The shift lives here, inside the oracle, so the
quadratic model used for direction acceptance is built from exactly the
same operator that the CG solver sees.

The logistic oracle applies ``A_I^T (w * (A_I v)) + shift*v``, where
``A_I`` holds the columns ``I`` of the design matrix and ``w`` the
per-sample curvature at ``x``.  Each operator setup slices ``A_I`` once
from the design matrix's column-major form (see ``linalg``), and each slice
keeps the transposed view its first product creates.  Value, gradient,
operator and trial prices call ``spmv``/``spmv_transpose`` through this
module's names.

On a small dense subspace the logistic operator also carries the exact
inverse of the same shifted matrix, as its ``inverse`` attribute, and the
solver takes the Newton step -H^-1 g with it: one dense solve, no CG and no
Hessian product.  ``linalg.gram_inverse`` decides when the inverse is
offered (the slice ``A_I`` held dense, |I| <= m and m*|I|^2 <= 2^18) and
says why.  Larger subspaces run Newton-CG.

The margins ``t = y*(A@x)`` feed all three, and a solver asks for them at
the same point several times: the line search's value at the point it
accepts, then the next gradient and the next operator setup.  So the
logistic oracle keeps the margins of the last point it computed them at,
together with ``e = exp(-|t|)`` and, once asked for, the loss there; a call
at an equal point costs an O(n) comparison instead of a product and an
exponential per sample, and a value there costs nothing more.

A line search moves x only on the step's index set ``I``, so the oracle
prices its trials on those columns (``trial_values``): a trial z, equal to
x off ``I``, has the margins ``t_x + y*(A_I @ (z_I - x_I))``, one product
with the column slice (the one the phi step's operator setup already cut,
when ``I`` is its index set) and O(m) work per trial.  Each trial becomes
the remembered entry, so the accepted one, the last a search prices,
serves the next gradient and operator setup with no product with the whole
matrix; a solve makes that product once, at its starting point.  Carried
margins are not bitwise ``y*(A@z)``: each carry adds the rounding of one
reduced product and one addition per sample, a few eps times the sum of
the magnitudes of the terms that form the margin, and a solve carries
them across all its iterations.  On the benchmark's wide, tall and
small-batch problems of seeds 101-105 the final margins stayed within 5
eps*max(1, max|t|) of a fresh product, and each reported objective within
2 relative ulps of a fresh oracle's F.

Every per-sample quantity is formed from ``e`` with no further exponential
(the newGLMNET scheme of Yuan, Ho & Lin, JMLR 2012):

- loss ``log(1 + exp(-t)) = log1p(e) - min(t, 0)``
- gradient coefficient ``sigma(-t) = (e if t >= 0 else 1) / (1 + e)``
- Hessian weight ``sigma(t)*sigma(-t) = e / (1 + e)^2``

None of them overflows, and each keeps its relative accuracy where it is
tiny: the weight does not cancel for large positive margins as
``sigma*(1 - sigma)`` does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from .linalg import SparseMatrix, gram_inverse, spmv, spmv_transpose

__all__ = [
    "ObjectiveOracle",
    "LogisticObjective",
    "HESSIAN_SHIFT",
]

HESSIAN_SHIFT = 1e-8


class ObjectiveOracle(ABC):
    """Twice-differentiable convex objective with reduced Hessian products."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Number of variables."""

    @abstractmethod
    def value(self, x) -> float:
        """f(x)."""

    @abstractmethod
    def gradient(self, x) -> np.ndarray:
        """grad f(x)."""

    @abstractmethod
    def reduced_hessian_operator(self, x, indices) -> Callable[[np.ndarray], np.ndarray]:
        """Return a closure applying the shifted reduced Hessian at fixed (x, I).

        The closure amortizes any per-(x, I) setup over the many products a
        CG solve performs.  It applies [H(x)]_{I,I} v + shift*v and expects
        a float64 vector of length |I|; ``indices`` must be sorted,
        duplicate-free and in range.  Neither is checked.

        The closure may carry an ``inverse`` attribute: a function applying
        the inverse of the same shifted matrix.  With it the solver takes
        the Newton step d = ``inverse(-g)`` and runs no CG, and raises
        ArithmeticError unless g^T d < 0 (a NaN step fails that too).  The
        logistic oracle offers one on small dense slices
        (``linalg.gram_inverse``); without one, the solver runs CG.
        """

    def trial_values(self, x, indices) -> tuple[float, Callable[[np.ndarray], float]]:
        """Return f(x) and the map z_I -> f(z) over the points z equal to x off ``indices``.

        ``z_I`` holds z's entries on ``indices`` (sorted, duplicate-free and
        in range; unchecked).  The line searches take F(x) from the first
        and price their trials with the second, since a step moves only
        those entries.  This default calls ``value`` at x and at each z_I
        written into a copy of x; an oracle may price faster from what it
        keeps at x.
        """
        x = np.array(x, dtype=np.float64)

        def value(z_reduced: np.ndarray) -> float:
            z = x.copy()
            z[indices] = z_reduced
            return self.value(z)

        return self.value(x), value


class LogisticObjective(ObjectiveOracle):
    """Binary logistic loss, summed over samples (no 1/m normalization).

        f(x) = sum_i log(1 + exp(-y_i a_i^T x))

    with rows a_i of the design matrix and labels y_i in {-1, +1}.  With the
    margins t = y*(A@x) and e = exp(-|t|), the loss, the gradient
    coefficients sigma(-t) and the Hessian weights sigma(t)*sigma(-t) are
    all formed from e, as the module docstring shows; one exponential per
    sample serves all three.

    The oracle remembers one entry: a private copy of the last point whose
    margins it computed or carried, those margins, their ``e`` and the loss
    there once ``value`` or a trial price has summed it.  It matches by
    value, not by identity, so a caller may mutate its arrays in place.  A
    trial's entry keeps the search's x, the step's indices and z_I, and
    writes the point out in full only when it is next looked up.  The memo
    costs one n-vector and two m-vectors per oracle and is never handed to
    a caller.  At a point whose margins came from a product with the whole
    matrix, a hit gives bitwise a fresh oracle's results (``-0.0`` and
    ``0.0`` entries compare equal and also give bitwise the same product);
    margins carried by a trial price agree with a fresh product to
    rounding, as the module docstring bounds.

    An operator setup leaves its column slice with the oracle, and the next
    ``trial_values`` takes it when handed the same index array (the same
    object, unchanged in between, as the solver's phi step hands it), so a
    phi step slices once; otherwise ``trial_values`` slices the step's
    columns itself.
    """

    def __init__(self, matrix: SparseMatrix, labels):
        if not isinstance(matrix, SparseMatrix):
            raise TypeError("matrix must be a SparseMatrix")
        y = np.ascontiguousarray(labels, dtype=np.float64)
        if y.shape != (matrix.n_rows,):
            raise ValueError(
                f"expected {matrix.n_rows} labels, got {y.shape}"
            )
        if not (np.abs(y) == 1.0).all():
            raise ValueError("labels must all be -1 or +1")
        self.matrix = matrix
        self.labels = y
        self._memo_x: np.ndarray | None = None
        # a trial's entry, (x, indices, z_I), written out into _memo_x on lookup
        self._memo_trial: tuple | None = None
        self._memo_margins: tuple[np.ndarray, np.ndarray] | None = None
        self._memo_value: float | None = None
        # (indices, A_I) of the last operator setup, until trial_values takes it
        self._slice: tuple | None = None

    @property
    def dim(self) -> int:
        return self.matrix.n_cols

    def _margins(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The margins t at ``x`` and e = exp(-|t|)."""
        if self._memo_trial is not None:
            base, indices, z_reduced = self._memo_trial
            self._memo_x = base.copy()
            self._memo_x[indices] = z_reduced
            self._memo_trial = None
        memo = self._memo_x
        if memo is not None and (x is memo or np.array_equal(x, memo)):
            return self._memo_margins
        t = self.labels * spmv(self.matrix, x)
        return t, self._remember(np.array(x, dtype=np.float64), None, t)

    def _remember(self, x, trial, t: np.ndarray) -> np.ndarray:
        """Make ``t`` the memo's margins, at ``x`` or at ``trial``; return e = exp(-|t|)."""
        e = np.abs(t)
        np.negative(e, out=e)
        np.exp(e, out=e)
        self._memo_x, self._memo_trial = x, trial
        self._memo_margins = (t, e)
        self._memo_value = None
        return e

    def value(self, x) -> float:
        t, e = self._margins(x)
        if self._memo_value is None:
            self._memo_value = _loss(t, e)
        return self._memo_value

    def trial_values(self, x, indices):
        t_x, _ = self._margins(x)
        base = self._memo_x  # the memo's private copy of x
        held, self._slice = self._slice, None
        if held is not None and held[0] is indices:
            sub = held[1]
        else:
            sub = self.matrix.column_submatrix(indices)
        indices = np.array(indices)  # the memo's own, as it matches by value
        x_reduced = base[indices]
        labels = self.labels

        def value(z_reduced: np.ndarray) -> float:
            t = spmv(sub, z_reduced - x_reduced)
            t *= labels
            t += t_x
            e = self._remember(None, (base, indices, z_reduced.copy()), t)
            self._memo_value = _loss(t, e)
            return self._memo_value

        return self.value(base), value

    def gradient(self, x) -> np.ndarray:
        t, e = self._margins(x)
        # the numerator, e where t >= 0 and 1 elsewhere, is max(e, t < 0)
        # since e <= 1; a select by np.where costs several times as much
        coef = np.maximum(e, t < 0.0)
        coef /= 1.0 + e
        coef *= self.labels
        return -spmv_transpose(self.matrix, coef)

    def reduced_hessian_operator(self, x, indices):
        _, e = self._margins(x)
        weights = 1.0 + e
        weights *= weights
        np.divide(e, weights, out=weights)
        sub = self.matrix.column_submatrix(indices)
        self._slice = (indices, sub)

        def apply(v: np.ndarray) -> np.ndarray:
            return spmv_transpose(sub, weights * spmv(sub, v)) + HESSIAN_SHIFT * v

        inverse = gram_inverse(sub, weights, HESSIAN_SHIFT)
        if inverse is not None:
            apply.inverse = inverse
        return apply


def _loss(t: np.ndarray, e: np.ndarray) -> float:
    """sum_i log(1 + exp(-t_i)), as log1p(e) - min(t, 0) with e = exp(-|t|)."""
    loss = np.log1p(e)
    loss -= np.minimum(t, 0.0)
    return float(np.add.reduce(loss))
