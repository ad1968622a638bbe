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
from the column-major form of the design matrix (a tall matrix's only
form, a wide matrix's copy that its first setup builds and later setups
reuse; see ``linalg``), and each slice keeps the transposed view its first
product creates.  Value, gradient and operator call
``spmv``/``spmv_transpose`` through this module's names.

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
at an equal point costs an O(n) comparison instead of an O(nnz) product and
an exponential per sample, and a value there costs nothing more.
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


class LogisticObjective(ObjectiveOracle):
    """Binary logistic loss, summed over samples (no 1/m normalization).

        f(x) = sum_i log(1 + exp(-y_i a_i^T x))

    with rows a_i of the design matrix and labels y_i in {-1, +1}.  With the
    margins t = y*(A@x) and e = exp(-|t|), the loss, the gradient
    coefficients sigma(-t) and the Hessian weights sigma(t)*sigma(-t) are
    all formed from e, as the module docstring shows; one exponential per
    sample serves all three.

    The oracle remembers one entry: a private copy of the last ``x`` whose
    margins it computed, those margins, their ``e`` and the loss f(x) once
    ``value`` has summed it.  It matches by value, not by identity, so a
    caller may mutate its arrays in place.  The memo costs one n-vector and
    two m-vectors per oracle and is never handed to a caller.  A hit reuses
    what the same product gave, so results are bitwise those of a fresh
    oracle; ``-0.0`` and ``0.0`` entries compare equal and also give
    bitwise the same product.
    """

    def __init__(self, matrix: SparseMatrix, labels):
        if not isinstance(matrix, SparseMatrix):
            raise TypeError("matrix must be a SparseMatrix")
        y = np.ascontiguousarray(labels, dtype=np.float64)
        if y.shape != (matrix.n_rows,):
            raise ValueError(
                f"expected {matrix.n_rows} labels, got {y.shape}"
            )
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must all be -1 or +1")
        self.matrix = matrix
        self.labels = y
        self._memo_x: np.ndarray | None = None
        self._memo_margins: tuple[np.ndarray, np.ndarray] | None = None
        self._memo_value: float | None = None

    @property
    def dim(self) -> int:
        return self.matrix.n_cols

    def _margins(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The margins t at ``x`` and e = exp(-|t|)."""
        if self._memo_x is not None and np.array_equal(x, self._memo_x):
            return self._memo_margins
        t = self.labels * spmv(self.matrix, x)
        e = np.abs(t)
        np.negative(e, out=e)
        np.exp(e, out=e)
        self._memo_x = np.array(x, dtype=np.float64)
        self._memo_margins = (t, e)
        self._memo_value = None
        return t, e

    def value(self, x) -> float:
        t, e = self._margins(x)
        if self._memo_value is None:
            loss = np.log1p(e)
            loss -= np.minimum(t, 0.0)
            self._memo_value = float(np.add.reduce(loss))
        return self._memo_value

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

        def apply(v: np.ndarray) -> np.ndarray:
            return spmv_transpose(sub, weights * spmv(sub, v)) + HESSIAN_SHIFT * v

        inverse = gram_inverse(sub, weights, HESSIAN_SHIFT)
        if inverse is not None:
            apply.inverse = inverse
        return apply
