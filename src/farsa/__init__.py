"""Reduced-space active-set solver for l1-regularized convex minimization.

The solver alternates between Newton-CG steps on the predicted support and
scaled freeing steps on the zero variables, with termination driven by the
pair of optimality measures (beta on the zeros, phi on the support).  A
proximal-gradient baseline, a logistic-regression oracle, and LIBSVM data
ingestion round out the package.

The names exported here check their inputs; the kernels beneath them trust
theirs and are imported from their modules (e.g. ``farsa.linalg.spmv``).
"""

from .datasets import (
    Dataset,
    DatasetFormatError,
    load_dataset,
    parse_libsvm,
    relabel_binary_mnist,
    scale_minus1_1,
    scale_pixels,
    write_libsvm,
)
from .ista import IstaConfig, ista_solve
from .linalg import SparseMatrix
from .objectives import LogisticObjective, ObjectiveOracle
from .solver import (
    IterationRecord,
    IterationType,
    SolveReport,
    SolveStatus,
    SolverConfig,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "IstaConfig",
    "IterationRecord",
    "IterationType",
    "LogisticObjective",
    "ObjectiveOracle",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "SparseMatrix",
    "ista_solve",
    "load_dataset",
    "parse_libsvm",
    "relabel_binary_mnist",
    "scale_minus1_1",
    "scale_pixels",
    "solve",
    "write_libsvm",
]
