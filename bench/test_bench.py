"""Self-tests of the benchmark: exact repeats, regimes on a second seed, output format.

Run from the root of the checkout (takes a few minutes):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import problems
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED, SECOND_SEED = 7, 8
WORKLOADS = list(run.WORKLOADS)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # --seconds 0 runs the smallest complete measurement: one pass over the
    # workload's problems (one untraced and one traced pass with --trace 1)
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace),
    ]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


_results: dict = {}


def traced(workload: str, seed: int, attempt: int = 0) -> dict:
    key = (workload, seed, attempt)
    if key not in _results:
        done = bench(workload, seed, trace=1)
        assert done.returncode == 0, done.stderr
        _results[key] = json.loads(done.stdout.splitlines()[-1])
    return _results[key]


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, SEED), traced(workload, SEED, attempt=1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)[
        "ista.iterations" if workload == "tall-ista" else "solver.iterations"
    ] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = traced(workload, SECOND_SEED)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _bytes_per_kernel_call(metrics: dict) -> float:
    calls = metrics["linalg.spmv.calls"]["value"] + metrics["linalg.spmv_transpose.calls"]["value"]
    return metrics["linalg.bytes_computed"]["value"] / calls


def test_second_seed_regimes():
    wide = traced("wide", SECOND_SEED)["metrics"]
    tall = traced("tall", SECOND_SEED)["metrics"]
    ista = traced("tall-ista", SECOND_SEED)["metrics"]
    small = traced("small-batch", SECOND_SEED)["metrics"]
    # tall needs few iterations per problem
    assert tall["solver.iterations"]["value"] <= 25 * problems.FILE_PROBLEMS
    # the ISTA baseline bypasses the reduced-space machinery
    for name in (
        "objectives.hessian_setup.calls",
        "objectives.hessian_product.calls",
        "linalg.column_submatrix.calls",
        "subproblem.cg_solve.calls",
    ):
        assert ista[name]["value"] == 0
    assert ista["ista.iterations"]["value"] > 0
    # small-batch kernels touch tens of KiB per call, which stays in cache
    # and takes about as long as the Python around the call; wide ones
    # stream megabytes
    assert _bytes_per_kernel_call(small) < 64 * 1024
    assert _bytes_per_kernel_call(wide) > 1024 * 1024


def test_wide_first_beta_step_frees_most_variables():
    farsa = run.import_farsa()
    for index in range(problems.FILE_PROBLEMS):
        problem = problems.wide_problem(SECOND_SEED, index)
        matrix = farsa.SparseMatrix(
            *problem.shape, problem.matrix.indptr, problem.matrix.indices, problem.matrix.data
        )
        oracle = farsa.LogisticObjective(matrix, problem.labels)
        report = farsa.solve(oracle, farsa.SolverConfig(lam=problem.lam, epsilon=run.EPSILON))
        first = report.trace[0]
        assert report.percent_zeros > 85.0
        assert first.type is farsa.IterationType.BETA
        assert first.support_size > 0.5 * problem.shape[1]


def test_end_to_end_run_prints_every_metric():
    done = bench("small-batch", SEED, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= problems.SMALL_BATCH_COUNT
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert "solve_s_p90" in done.stdout and "failure_rate" in done.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("tall", SEED, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
