"""Reduced-space active-set solver for l1-regularized convex minimization.

The solver alternates between Newton-CG steps on the predicted support and
scaled freeing steps on the zero variables, with termination driven by the
pair of optimality measures (beta on the zeros, phi on the support).  A
proximal-gradient baseline, a logistic-regression oracle, and LIBSVM data
ingestion round out the package.
"""

from .datasets import (
    Dataset,
    DatasetFormatError,
    load_dataset,
    parse_libsvm,
    relabel_binary_mnist,
    scale_max_abs,
    scale_minus1_1,
    scale_pixels,
    write_libsvm,
)
from .ista import IstaConfig, ista_solve, shrink
from .linalg import SparseMatrix, spmv, spmv_transpose
from .linesearch import (
    LineSearchError,
    PhiOutcome,
    SearchResult,
    linesearch_beta,
    linesearch_phi,
    project_orthant,
)
from .objectives import LogisticObjective, ObjectiveOracle, QuadraticObjective
from .optimality import OptimalityPair, is_optimal, ista_step, optimality_measures
from .solver import (
    IterationRecord,
    IterationType,
    SolveReport,
    SolveStatus,
    SolverConfig,
    SolverState,
    solve,
)
from .subproblem import CgLimits, CgOutcome, CgStopReason, cg_solve

__version__ = "0.1.0"

__all__ = [
    "CgLimits",
    "CgOutcome",
    "CgStopReason",
    "Dataset",
    "DatasetFormatError",
    "IstaConfig",
    "IterationRecord",
    "IterationType",
    "LineSearchError",
    "LogisticObjective",
    "ObjectiveOracle",
    "OptimalityPair",
    "PhiOutcome",
    "QuadraticObjective",
    "SearchResult",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "SolverState",
    "SparseMatrix",
    "cg_solve",
    "is_optimal",
    "ista_solve",
    "ista_step",
    "linesearch_beta",
    "linesearch_phi",
    "load_dataset",
    "optimality_measures",
    "parse_libsvm",
    "project_orthant",
    "relabel_binary_mnist",
    "scale_max_abs",
    "scale_minus1_1",
    "scale_pixels",
    "shrink",
    "solve",
    "spmv",
    "spmv_transpose",
    "write_libsvm",
]
