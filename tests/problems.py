"""The separable quadratic test oracle and random problem instances shared
by solver-level and acceptance tests."""

import numpy as np

from farsa import IterationType, LogisticObjective, ObjectiveOracle, SolveReport, SparseMatrix
from farsa.linalg import as_vector, dot
from farsa.linesearch import _EVAL_NOISE
from farsa.objectives import HESSIAN_SHIFT


class QuadraticObjective(ObjectiveOracle):
    """Separable quadratic f(x) = 0.5 x^T diag(d) x + c^T x with d > 0.

    Closed-form test oracle: the l1-regularized minimizer is the
    componentwise soft threshold of -c/d (``quadratic_l1_minimizer``).
    Only the constructor checks, and the operator offers no inverse.
    """

    def __init__(self, diag, linear):
        d = as_vector(diag)
        c = as_vector(linear, d.shape[0])
        if np.any(d <= 0):
            raise ValueError("diagonal entries must be positive")
        self.diag = d
        self.linear = c

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def value(self, x) -> float:
        return 0.5 * dot(x, self.diag * x) + dot(self.linear, x)

    def gradient(self, x) -> np.ndarray:
        return self.diag * x + self.linear

    def reduced_hessian_operator(self, x, indices):
        d_reduced = self.diag[indices] + HESSIAN_SHIFT

        def apply(v: np.ndarray) -> np.ndarray:
            return d_reduced * v

        return apply


def random_quadratic(rng, n):
    """Well-conditioned separable quadratic with a soft-thresholdable optimum."""
    diag = rng.uniform(0.5, 3.0, size=n)
    linear = rng.normal(scale=2.0, size=n)
    lam = float(rng.uniform(0.1, 1.0))
    return QuadraticObjective(diag, linear), lam


def quadratic_l1_minimizer(obj: QuadraticObjective, lam: float) -> np.ndarray:
    """Closed-form componentwise soft threshold of the separable problem."""
    target = -obj.linear
    return np.where(
        target > lam,
        (target - lam) / obj.diag,
        np.where(target < -lam, (target + lam) / obj.diag, 0.0),
    )


def random_logistic_problem(rng, m, n, density=0.7):
    """Random sparse logistic instance with moderate margins."""
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.normal(scale=1.0, size=(m, n)), 0.0)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    obj = LogisticObjective(SparseMatrix.from_dense(dense), labels)
    lam = float(rng.uniform(0.05, 0.3)) * m / 10.0
    return obj, lam


def check_records(report: SolveReport) -> None:
    """Assert the invariants that every record of a FaRSA solve keeps.

    - A record's objective exceeds the one before it by at most the line
      searches' rounding allowance, 32 machine epsilons of 1 + |F|
      (``linesearch._EVAL_NOISE``).
    - A record is a phi step exactly when ``beta_norm <= phi_norm`` (the
      paper's gamma, fixed at 1).
    - Beta records ran no CG: ``cg_iterations == 0``.
    - 0 < ``step_size`` <= 1, and ``elapsed`` never decreases.
    - The report's objective is the last record's.
    """
    previous = None
    for record in report.trace:
        where = f"record {record.k}"
        phi = record.type is not IterationType.BETA
        assert phi == (record.beta_norm <= record.phi_norm), f"{where}: branch {record.type}"
        assert phi or record.cg_iterations == 0, f"{where}: a beta step ran CG"
        assert 0.0 < record.step_size <= 1.0, f"{where}: step size {record.step_size}"
        if previous is not None:
            allowance = _EVAL_NOISE * (1.0 + abs(previous.objective))
            assert record.objective <= previous.objective + allowance, (
                f"{where}: objective rose from {previous.objective!r} to {record.objective!r}"
            )
            assert record.elapsed >= previous.elapsed, f"{where}: elapsed decreased"
        previous = record
    if previous is not None:
        assert report.objective == previous.objective, "report objective is not the last record's"
