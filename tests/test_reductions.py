"""Reductions go through ``farsa.linalg.dot``, so iterates do not depend on BLAS threads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints a sha256 over x_final, the objective and every record field but the
# wall clock of each report passed to hash_reports.
_HASH_REPORTS = """
import dataclasses, hashlib
import numpy as np, scipy.sparse as sp
from farsa import LogisticObjective, SolverConfig, SparseMatrix, solve

def hash_reports(reports):
    h = hashlib.sha256()
    for report in reports:
        h.update(report.x_final.tobytes())
        h.update(repr(report.objective).encode())
        for record in report.trace:
            for field in dataclasses.fields(record):
                if field.name != "elapsed":
                    h.update(repr(getattr(record, field.name)).encode())
    return h.hexdigest()
"""

# Solves one seeded logistic problem of 500 x 20,000 (long enough for
# OpenBLAS to split a dot product across threads) and prints the status,
# the iteration count and the hash.
_SOLVE_AND_HASH = _HASH_REPORTS + """
rng = np.random.default_rng(20_000)
m, n = 500, 20_000
a = sp.random(m, n, density=0.002, format="csr", random_state=rng)
labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
matrix = SparseMatrix(m, n, a.indptr, a.indices, a.data)
report = solve(LogisticObjective(matrix, labels), SolverConfig(lam=5.0 / m))
print(report.status.value, report.iterations, hash_reports([report]))
"""

# Solves 20 small seeded logistic problems shaped like the bench's
# small-batch ones, one of exactly DENSE_MAX_ENTRIES entries, one just above
# it, and one of 192 x 64 whose phi supports lie on both sides of the Newton
# step's bound m*|I|^2 <= 2^18 (|I| <= 36).  Prints the statuses, which
# matrices hold a dense copy (and so multiply by BLAS gemv), the number of
# phi iterations that ran no CG (the Newton steps, with Gram products and
# dense solves), and the hash.
_SMALL_SOLVES_AND_HASH = _HASH_REPORTS + """
rng = np.random.default_rng(2**15)
shapes = []
for _ in range(20):
    n = int(rng.integers(20, 81))
    shapes.append((n + int(rng.integers(20, 101)), n))
shapes += [(256, 128), (257, 128), (192, 64)]
reports, dense_held = [], []
for m, n in shapes:
    a = sp.random(m, n, density=0.3, format="csr", random_state=rng)
    x_true = np.where(rng.random(n) < 0.3, rng.normal(size=n), 0.0)
    labels = np.where(rng.random(m) < 1.0 / (1.0 + np.exp(-(a @ x_true))), 1.0, -1.0)
    lam = 0.05 * np.max(np.abs(a.T @ labels))
    matrix = SparseMatrix(m, n, a.indptr, a.indices, a.data)
    reports.append(solve(LogisticObjective(matrix, labels), SolverConfig(lam=lam)))
    dense_held.append(int(matrix._dense is not None))
newton = sum(
    r.cg_iterations == 0 for report in reports for r in report.trace if r.type.value != "beta"
)
print(sorted({r.status.value for r in reports}), dense_held, newton, hash_reports(reports))
"""


def _solve_with_threads(script: str, threads: int) -> str:
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
    }
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_iterates_do_not_depend_on_blas_threads():
    one, two = (_solve_with_threads(_SOLVE_AND_HASH, t) for t in (1, 2))
    assert one.startswith("optimal ")
    assert one == two


def test_dense_products_do_not_depend_on_blas_threads():
    one, two = (_solve_with_threads(_SMALL_SOLVES_AND_HASH, t) for t in (1, 2))
    # 115 Newton steps: the Newton path engages (0 without it)
    assert one.startswith("['optimal'] " + repr([1] * 21 + [0, 1]) + " 115 ")
    assert one == two


_BANNED_NUMPY = {"dot", "vdot", "inner", "matmul", "linalg"}


def _reductions_outside_linalg(source: str) -> list[tuple[int, str]]:
    """(line, form) of each ``@``, ``.dot`` and numpy product or norm in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot"
            or isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in _BANNED_NUMPY
        ):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names} | set(node.module.split("."))
            if names & _BANNED_NUMPY:
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                found.append((node.lineno, "import numpy.linalg"))
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((SRC / "farsa").glob("*.py")) if p.name != "linalg.py"],
    ids=lambda p: p.name,
)
def test_reductions_go_through_linalg(path):
    assert _reductions_outside_linalg(path.read_text()) == []


def test_scan_finds_each_banned_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy.linalg import norm\n"
        "from numpy import vdot\n"
        "a = b @ c\n"
        "a @= b\n"
        "s = v.dot(w)\n"
        "n = np.linalg.norm(v)\n"
        "t = np.dot(v, w) + np.inner(v, w) + np.vdot(v, w) + np.matmul(v, w)\n"
        "ok = np.add.reduce(v * w) + np.sum(np.abs(v)) + linalg_dot(v, w)\n"
    )
    assert _reductions_outside_linalg(source) == [
        (2, "import numpy.linalg"),
        (3, "from numpy.linalg import"),
        (4, "from numpy import"),
        (5, "@"),
        (6, "@"),
        (7, ".dot"),
        (8, ".linalg"),
        (9, ".dot"),
        (9, ".inner"),
        (9, ".matmul"),
        (9, ".vdot"),
    ]
