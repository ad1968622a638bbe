"""Seeded synthetic problems and the independent correctness checks.

Nothing here imports ``farsa``: the generated arrays are the ground truth
the benchmark checks the solver's answers against, so they are built and
evaluated with plain numpy/scipy only.

Every problem is l1-regularized logistic regression with a planted sparse
model: labels are drawn from Bernoulli(sigmoid(A x_true)), so the data
carry real signal and the regularized minimizer is sparse but not trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "Problem",
    "wide_problem",
    "tall_problem",
    "small_batch",
    "write_libsvm_text",
    "objective",
    "prox_residual",
    "check_solution",
]

# Sizes of the named workloads (rows, columns, density, planted support).
WIDE = (5_000, 50_000, 0.002, 200)
TALL = (20_000, 2_000, 0.01, 100)
SMALL_BATCH_COUNT = 200
# Independent problems per file-backed workload; their mean smooths out how
# much one problem drawn from a seed happens to cost.
FILE_PROBLEMS = 4


@dataclass(frozen=True)
class Problem:
    """CSR arrays, +-1 labels and the l1 weight of one logistic problem."""

    matrix: sp.csr_matrix
    labels: np.ndarray
    lam: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _planted_problem(rng, m, n, density, support) -> tuple[sp.csr_matrix, np.ndarray]:
    nnz = int(round(density * m * n))
    # distinct flat positions, sorted so rows and in-row columns come out
    # in CSR order
    flat = np.unique(rng.integers(0, m * n, size=nnz + nnz // 8))
    while flat.size < nnz:
        flat = np.union1d(flat, rng.integers(0, m * n, size=nnz - flat.size))
    flat = np.sort(rng.choice(flat, size=nnz, replace=False))
    rows, cols = np.divmod(flat, n)
    # four decimals keep the LIBSVM text short to write and parse
    values = np.round(rng.normal(size=nnz), 4)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
    matrix = sp.csr_matrix((values, cols, indptr), shape=(m, n))

    x_true = np.zeros(n)
    x_true[rng.choice(n, size=support, replace=False)] = rng.normal(size=support)
    # scale so typical margins are O(1): informative but not separable
    margins = matrix @ x_true
    x_true *= 2.0 / max(float(np.std(margins)), 1e-12)
    labels = np.where(rng.random(m) < expit(matrix @ x_true), 1.0, -1.0)
    return matrix, labels


def _grad_at_zero_inf_norm(matrix: sp.csr_matrix, labels: np.ndarray) -> float:
    # grad f(0) = -A^T (y * sigmoid(0)) = -A^T y / 2
    return float(np.max(np.abs(matrix.T @ (0.5 * labels))))


def wide_problem(seed: int, index: int = 0) -> Problem:
    """5,000 x 50,000 at density 0.2%, 200-sparse model, lam = 5/m."""
    m, n, density, support = WIDE
    rng = np.random.default_rng([seed, 1, index])
    matrix, labels = _planted_problem(rng, m, n, density, support)
    return Problem(matrix, labels, 5.0 / m)


def tall_problem(seed: int, index: int = 0) -> Problem:
    """20,000 x 2,000 at density 1%, 100-sparse model, lam = 0.05*||grad f(0)||_inf."""
    m, n, density, support = TALL
    rng = np.random.default_rng([seed, 2, index])
    matrix, labels = _planted_problem(rng, m, n, density, support)
    return Problem(matrix, labels, 0.05 * _grad_at_zero_inf_norm(matrix, labels))


def small_batch(seed: int) -> list[Problem]:
    """200 dense-ish problems: n in [20, 80], m = n + [20, 100], density 0.3."""
    rng = np.random.default_rng([seed, 3])
    problems = []
    for _ in range(SMALL_BATCH_COUNT):
        n = int(rng.integers(20, 81))
        m = n + int(rng.integers(20, 101))
        mask = rng.random((m, n)) < 0.3
        dense = np.where(mask, rng.normal(size=(m, n)), 0.0)
        x_true = np.where(rng.random(n) < 0.3, rng.normal(size=n), 0.0)
        labels = np.where(rng.random(m) < expit(dense @ x_true), 1.0, -1.0)
        matrix = sp.csr_matrix(dense)
        matrix.sort_indices()
        lam = 0.1 * _grad_at_zero_inf_norm(matrix, labels)
        problems.append(Problem(matrix, labels, lam))
    return problems


def write_libsvm_text(problem: Problem, path: Path) -> None:
    """Write the problem as LIBSVM text with round-trip float repr."""
    a = problem.matrix
    cols = (a.indices + 1).tolist()
    vals = a.data.tolist()
    ptr = a.indptr.tolist()
    with open(path, "w") as handle:
        for i, label in enumerate(problem.labels.tolist()):
            feats = " ".join(
                f"{c}:{v!r}" for c, v in zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]])
            )
            handle.write(f"{int(label):d} {feats}\n")


def objective(problem: Problem, x: np.ndarray) -> float:
    """F(x) = sum_i log(1 + exp(-y_i a_i^T x)) + lam*||x||_1."""
    t = problem.labels * (problem.matrix @ x)
    return float(np.sum(np.logaddexp(0.0, -t)) + problem.lam * np.sum(np.abs(x)))


def prox_residual(problem: Problem, x: np.ndarray) -> float:
    """||x - soft(x - grad f(x), lam)||: zero exactly at a minimizer of F."""
    t = problem.labels * (problem.matrix @ x)
    grad = -(problem.matrix.T @ (problem.labels * expit(-t)))
    u = x - grad
    shrunk = np.sign(u) * np.maximum(np.abs(u) - problem.lam, 0.0)
    return float(np.linalg.norm(x - shrunk))


# The reported objective and the one recomputed here sum the same terms in
# different orders; their relative difference is a few ulps times the
# number of samples, far below this tolerance.
OBJECTIVE_RTOL = 1e-10


def check_solution(
    problem: Problem, x: np.ndarray, reported_objective: float, epsilon: float
) -> str | None:
    """Return why the solution is wrong, or None when it passes.

    A solver that stops at max{||beta||, ||phi||} <= epsilon leaves a
    proximal-gradient residual of at most sqrt(2)*epsilon, because beta and
    phi have disjoint supports and the unit shrink step equals -(beta+phi).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.shape[1],) or not np.all(np.isfinite(x)):
        return f"solution has shape {x.shape} or non-finite entries"
    residual = prox_residual(problem, x)
    if not residual <= np.sqrt(2.0) * epsilon:
        return f"proximal-gradient residual {residual:.3e} > sqrt(2)*{epsilon:g}"
    value = objective(problem, x)
    if not abs(value - reported_objective) <= OBJECTIVE_RTOL * max(1.0, abs(value)):
        return f"reported objective {reported_objective!r} != recomputed {value!r}"
    return None
