"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 5 needs the scaled LIBSVM benchmark files in ``data/``
(run ``scripts/fetch_datasets.sh`` on a networked machine); it is skipped
with a pointed message when they are absent.
"""

import gzip
import io
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from farsa import (
    IstaConfig,
    LogisticObjective,
    SolveStatus,
    SolverConfig,
    ista_solve,
    load_dataset,
    parse_libsvm,
    solve,
    write_libsvm,
)
from farsa.optimality import ista_step, optimality_measures
from farsa.subproblem import CgStopReason, cg_solve
from problems import random_logistic_problem, random_quadratic
from reference import (
    accept_direction,
    beta_scalar,
    fd_gradient,
    fd_hessian,
    phi_scalar,
    random_measure_triples,
    reference_direction,
    shrink_step_scalar,
)
from test_datasets import random_dataset

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# dataset -> (zero count, feature count, percent at one printed decimal):
# the known solution sparsity of these benchmarks at lambda = 1/n_samples
TABLE_SPARSITY = {
    "heart_scale": (1, 13, "7.7"),
    "diabetes_scale": (1, 8, "12.5"),
    "sonar_scale": (25, 60, "41.7"),
    "svmguide3": (10, 22, "45.5"),
}


def report(line: str) -> None:
    print(line)


@pytest.fixture(scope="module")
def small_problem_runs():
    """25 random problems solved by both solvers (criteria 3 and 4)."""
    rng = np.random.default_rng(1234)
    runs = []
    start = time.perf_counter()
    for i in range(25):
        if i % 2 == 0:
            n = int(rng.integers(5, 100))
            oracle, lam = random_quadratic(rng, n)
        else:
            n = int(rng.integers(5, 60))
            m = n + int(rng.integers(10, 40))
            oracle, lam = random_logistic_problem(rng, m, n)
        fast = solve(oracle, SolverConfig(lam=lam, epsilon=1e-6))
        baseline = ista_solve(oracle, lam, IstaConfig(epsilon=1e-10, max_iter=500_000))
        runs.append((oracle, lam, fast, baseline))
    return runs, time.perf_counter() - start


def test_criterion_1_shrink_identity_property():
    # The library builds beta and phi from the shrink step, so the identity
    # s + beta + phi = 0 is checked on the independent scalar transcriptions,
    # and the library is checked to equal them exactly.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    library, scalar = [], []
    for _ in range(10_000):
        x, g, lam = random_measure_triples(rng, 12)
        pair = optimality_measures(x, g, lam)
        library.append((ista_step(x, g, lam), pair.beta, pair.phi))
        scalar.append(
            (shrink_step_scalar(x, g, lam), beta_scalar(x, g, lam), phi_scalar(x, g, lam))
        )
    library, scalar = np.array(library), np.array(scalar)
    mismatched = np.flatnonzero((library != scalar).any(axis=(1, 2)))
    s, beta, phi = scalar[:, 0], scalar[:, 1], scalar[:, 2]
    worst = float(np.abs(s + beta + phi).max())
    elapsed = time.perf_counter() - start
    assert mismatched.size == 0, f"library differs from scalar references at {mismatched[:10]}"
    assert worst <= 1e-14, f"identity residual {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(f"criterion 1 (shrink identity, 1e4 triples): PASS ({elapsed:.2f}s)")


def test_criterion_2_gradient_and_hessian_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(2, 51))
        oracle, _ = random_logistic_problem(rng, m, n)
        x = rng.uniform(-2.0, 2.0, size=n)
        g = oracle.gradient(x)
        g_fd = fd_gradient(oracle.value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g))
        h_fd = fd_hessian(oracle.gradient, x) + 1e-8 * np.eye(n)
        idx = np.arange(n)
        apply = oracle.reduced_hessian_operator(x, idx)
        h = np.column_stack([apply(e) for e in np.eye(n)])
        assert np.linalg.norm(h - h_fd) <= 1e-5 * (1.0 + np.linalg.norm(h_fd))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(f"criterion 2 (gradient/Hessian vs finite differences): PASS ({elapsed:.2f}s)")


def test_criterion_3_solver_agrees_with_baseline(small_problem_runs):
    runs, solve_time = small_problem_runs
    for oracle, lam, fast, baseline in runs:
        assert baseline.status is SolveStatus.OPTIMAL
        assert fast.objective == pytest.approx(
            baseline.objective, rel=1e-8, abs=1e-10
        )
        pair = optimality_measures(
            fast.x_final, oracle.gradient(fast.x_final), lam
        )
        assert pair.max_norm <= 1e-6
    assert solve_time < 30.0, f"solves took {solve_time:.2f}s"
    report(f"criterion 3 (25-problem baseline agreement): PASS ({solve_time:.2f}s)")


def test_criterion_4_monotone_descent_and_finite_termination(small_problem_runs):
    runs, _ = small_problem_runs
    for oracle, _, fast, _ in runs:
        assert fast.status is SolveStatus.OPTIMAL
        objectives = [r.objective for r in fast.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        add_count = sum(1 for r in fast.trace if r.type.value == "phi_add")
        assert add_count <= oracle.dim
    report("criterion 4 (monotone descent, finite termination, add-step bound): PASS")


@pytest.mark.skipif(
    not all((DATA_DIR / name).exists() for name in TABLE_SPARSITY),
    reason=(
        "scaled LIBSVM files missing; run scripts/fetch_datasets.sh on a "
        "networked machine to populate data/"
    ),
)
def test_criterion_5_benchmark_sparsity():
    start = time.perf_counter()
    for name, (zeros, features, printed) in TABLE_SPARSITY.items():
        dataset = load_dataset(DATA_DIR / name)
        assert dataset.n_features == features, f"{name}: unexpected feature count"
        oracle = LogisticObjective(dataset.matrix, dataset.labels)
        lam = 1.0 / dataset.n_samples
        solve_start = time.perf_counter()
        result = solve(oracle, SolverConfig(lam=lam))
        solve_time = time.perf_counter() - solve_start
        assert result.status is SolveStatus.OPTIMAL, f"{name}: {result.status}"
        zero_count = int(np.count_nonzero(result.x_final == 0.0))
        assert zero_count == zeros, (
            f"{name}: got {zero_count} zeros, expected {zeros}"
        )
        assert f"{result.percent_zeros:.1f}" == printed
        report(
            f"  {name}: {zero_count}/{features} zeros "
            f"({result.percent_zeros:.1f}%), {solve_time:.3f}s, "
            f"{result.iterations} iterations"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(f"criterion 5 (benchmark sparsity at defaults): PASS ({elapsed:.2f}s)")


def test_criterion_6_step_bound_on_random_subproblems():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = q @ np.diag(rng.uniform(0.3, 20.0, size=n)) @ q.T + 1e-8 * np.eye(n)
        theta_min = float(np.linalg.eigvalsh(h).min())
        g = rng.normal(size=n)
        cap = float(rng.uniform(0.01, 50.0))
        out = cg_solve(lambda v: h @ v, g, rng.normal(size=n), cap)
        bound = (2.0 / theta_min) * float(np.linalg.norm(g)) + 1e-10
        assert float(np.linalg.norm(out.direction)) <= bound
    report("criterion 6 (accepted-direction norm bound): PASS")


def test_criterion_7_cg_stop_rule_coverage():
    seen = {}

    def record(tag, hvp, g, x_restricted, cap):
        out = cg_solve(hvp, g, x_restricted, cap)
        d_ref, _ = reference_direction(g, hvp)
        assert accept_direction(g, out.direction, d_ref, hvp), tag
        seen[out.stop_reason] = tag
        return out

    rng = np.random.default_rng(7)

    h1 = (1.0 + 1e-8) * np.eye(4)
    out = record("identity", lambda v: h1 @ v, rng.normal(size=4),
                 np.ones(4), 1e3)
    assert out.stop_reason is CgStopReason.RESIDUAL_REDUCED

    h2 = np.diag([1.0, 2.0, 4.0, 8.0, 16.0])
    out = record("tiny cap", lambda v: h2 @ v, np.ones(5),
                 np.ones(5), 1e-9)
    assert out.stop_reason is CgStopReason.STEP_TOO_LARGE

    n = 1200
    diag = rng.uniform(1.0, 100.0, size=n)
    out = record("mass sign flip", lambda v: diag * v, np.ones(n),
                 1e-6 * np.ones(n), 1e3)
    assert out.stop_reason is CgStopReason.ORTHANT_VIOLATIONS

    assert {
        CgStopReason.RESIDUAL_REDUCED,
        CgStopReason.STEP_TOO_LARGE,
        CgStopReason.ORTHANT_VIOLATIONS,
    } <= set(seen)
    report("criterion 7 (all three CG stop rules, directions acceptable): PASS")


def test_criterion_8_parser_round_trip_and_memory(tmp_path):
    rng = np.random.default_rng(88)
    for case in range(100):
        ds = random_dataset(rng)
        buffer = io.StringIO()
        write_libsvm(ds, buffer)
        back = parse_libsvm(io.StringIO(buffer.getvalue()), n_features=ds.n_features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.matrix.row_offsets, ds.matrix.row_offsets)
        assert np.array_equal(back.matrix.col_indices, ds.matrix.col_indices)
        assert np.array_equal(back.matrix.values, ds.matrix.values)

    # single-feature rows and gzip transport
    gz = tmp_path / "single.libsvm.gz"
    ds = parse_libsvm(io.StringIO("+1 7:1.25\n-1 2:-0.5\n"))
    write_libsvm(ds, gz)
    with gzip.open(gz, "rt") as handle:
        back = parse_libsvm(handle, n_features=ds.n_features)
    assert np.array_equal(back.matrix.values, ds.matrix.values)

    # news20-shaped synthetic: one million features, nnz-bounded memory
    wide = tmp_path / "wide.libsvm"
    n_rows, n_cols, per_row = 150, 1_000_000, 800
    with wide.open("w") as handle:
        for _ in range(n_rows):
            cols = np.sort(rng.choice(n_cols, size=per_row, replace=False)) + 1
            vals = rng.random(per_row)
            handle.write(
                "+1 " + " ".join(f"{c}:{v:.6f}" for c, v in zip(cols, vals)) + "\n"
            )
    tracemalloc.start()
    parsed = load_dataset(wide)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert parsed.matrix.nnz == n_rows * per_row
    assert peak < 64 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
    report("criterion 8 (round-trip identity, gzip, nnz-bounded memory): PASS")
