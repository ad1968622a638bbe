"""The farsa benchmark: seeded synthetic workloads against the public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each solve starts only after the
previous one returned.  BLAS is pinned to one thread.  The seed makes the
inputs; the program only receives the generated arrays (through a LIBSVM
file for the file-backed workloads).

``--trace 0`` measures the end-to-end metrics (untraced) and prints them as
the last stdout line, a JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 1`` alternates untraced and traced units of work and
reports the per-layer metrics instead, including the tracing overhead.
Every solve is checked against numpy/scipy recomputations outside the
timed region; a solve that is not OPTIMAL or fails a check counts as failed.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import problems  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
EPSILON = 1e-6
# tall and tall-ista solve the same problem; their optima must agree this well
CROSS_CHECK_RTOL = 1e-8
# setup is repeated at least this many times and for at least this long
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
WARMUP_SECONDS = 0.5

# BENCHMARK.json says why wide, tall and small-batch were chosen.  tall-ista
# (the tall problems by the ISTA baseline) runs here but is left out of the
# gated set: the number of ISTA iterations to epsilon jumps between about
# 130 and 950 from one seed to the next, so no bound on its time would hold.
WORKLOADS = ("wide", "tall", "tall-ista", "small-batch")

# Spans that must fire on each workload in a traced run.
_REDUCED_SPACE = {
    "linalg.spmv",
    "linalg.spmv_transpose",
    "linalg.column_submatrix",
    "objectives.value",
    "objectives.gradient",
    "objectives.hessian_setup",
    "objectives.hessian_product",
    "optimality.measures",
    "subproblem.cg_solve",
    "linesearch.phi",
    "linesearch.beta",
    "solver",
}
EXPECTED_SPANS = {
    "wide": _REDUCED_SPACE | {"datasets.load"},
    # tall and tall-ista also trace the cross-check solve by the other solver
    "tall": _REDUCED_SPACE | {"datasets.load", "ista"},
    "tall-ista": {
        "datasets.load",
        "linalg.spmv",
        "linalg.spmv_transpose",
        "objectives.value",
        "objectives.gradient",
        "optimality.measures",
        "ista",
        "solver",
    },
    "small-batch": _REDUCED_SPACE,
}

# Per-layer counts, as (metric name, source, key).  They are per unit of
# work and must repeat exactly across units and runs of one seed.
COUNT_METRICS = [
    ("linalg.spmv.calls", "calls", "linalg.spmv"),
    ("linalg.spmv_transpose.calls", "calls", "linalg.spmv_transpose"),
    ("linalg.column_submatrix.calls", "calls", "linalg.column_submatrix"),
    ("linalg.column_submatrix.cols", "counters", "linalg.column_submatrix.cols"),
    ("objectives.value.calls", "calls", "objectives.value"),
    ("objectives.gradient.calls", "calls", "objectives.gradient"),
    ("objectives.hessian_setup.calls", "calls", "objectives.hessian_setup"),
    ("objectives.hessian_product.calls", "calls", "objectives.hessian_product"),
    ("optimality.measures.calls", "calls", "optimality.measures"),
    ("subproblem.cg_solve.calls", "calls", "subproblem.cg_solve"),
    ("subproblem.cg_iterations", "counters", "subproblem.cg_iterations"),
    ("linesearch.phi.calls", "calls", "linesearch.phi"),
    ("linesearch.beta.calls", "calls", "linesearch.beta"),
    ("linesearch.backtracks", "counters", "linesearch.backtracks"),
    ("linesearch.max_backtracks", "counters", "linesearch.max_backtracks"),
    ("linesearch.stalled_steps", "counters", "linesearch.stalled_steps"),
    ("solver.iterations", "report", "solver.iterations"),
    ("solver.phi_iterations", "report", "solver.phi_iterations"),
    ("solver.beta_iterations", "report", "solver.beta_iterations"),
    ("ista.iterations", "report", "ista.iterations"),
]
SELF_TIME_SPANS = [
    "linalg.spmv",
    "linalg.spmv_transpose",
    "linalg.column_submatrix",
    "objectives.value",
    "objectives.gradient",
    "objectives.hessian_setup",
    "objectives.hessian_product",
    "optimality.measures",
    "subproblem.cg_solve",
    "linesearch.phi",
    "linesearch.beta",
    "solver",
    "ista",
]


def import_farsa():
    """Import farsa from this checkout's ``src``; exit if it is not there."""
    package = ROOT / "src" / "farsa" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: no farsa sources at {package.parent}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    farsa = importlib.import_module("farsa")
    if Path(farsa.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported farsa from {farsa.__file__}, not {package}")
    return farsa


# -- environment ------------------------------------------------------------


def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it exposes the call."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(
                line.split(":", 1)[1].strip() for line in info if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
    }


# -- workloads --------------------------------------------------------------


@dataclass
class Instance:
    """One generated problem and, once set up, its oracle."""

    problem: problems.Problem
    oracle: object = None


@dataclass(frozen=True)
class Solver:
    """A solver entry point: its span name and how to call it."""

    span: str
    solve: Callable[[object, float], object]  # (oracle, lam) -> SolveReport


def farsa_solver(farsa) -> Solver:
    return Solver(
        "solver",
        lambda oracle, lam: farsa.solve(oracle, farsa.SolverConfig(lam=lam, epsilon=EPSILON)),
    )


def ista_solver(farsa) -> Solver:
    config = farsa.IstaConfig(epsilon=EPSILON)
    return Solver("ista", lambda oracle, lam: farsa.ista_solve(oracle, lam, config))


@dataclass
class Workload:
    name: str
    solver: Solver
    # solves instance 0 once more, outside the timed region, to cross-check
    reference: Solver | None = None
    instances: list[Instance] = field(default_factory=list)
    # each step (re)builds the oracles of some instances; a step is what
    # setup_s times
    setup_steps: list[Callable[[], None]] = field(default_factory=list)

    def run_unit(self, tracer: Tracer | None = None, solver: Solver | None = None, count=None):
        """Solve instances back to back; return the wall time and the reports."""
        solver = solver or self.solver
        instances = self.instances[:count]
        reports = []
        t0 = perf_counter()
        for instance in instances:
            if tracer is None:
                reports.append(solver.solve(instance.oracle, instance.problem.lam))
            else:
                with tracer.span(solver.span):
                    reports.append(solver.solve(instance.oracle, instance.problem.lam))
        return perf_counter() - t0, list(zip(instances, reports))


def _load_step(farsa, instance: Instance, path: Path):
    def step():
        dataset = farsa.load_dataset(path, n_features=instance.problem.shape[1])
        instance.oracle = farsa.LogisticObjective(dataset.matrix, dataset.labels)

    return step


def build_workload(farsa, name: str, seed: int, work_dir: Path) -> Workload:
    """Generate the workload's inputs; nothing here is timed."""
    if name == "small-batch":
        workload = Workload(name, farsa_solver(farsa))
        workload.instances = [Instance(p) for p in problems.small_batch(seed)]

        def setup_batch():
            for instance in workload.instances:
                p = instance.problem
                matrix = farsa.SparseMatrix(*p.shape, p.matrix.indptr, p.matrix.indices, p.matrix.data)
                instance.oracle = farsa.LogisticObjective(matrix, p.labels)

        workload.setup_steps.append(setup_batch)
        return workload

    if name == "wide":
        workload = Workload(name, farsa_solver(farsa))
    elif name == "tall":
        workload = Workload(name, farsa_solver(farsa), reference=ista_solver(farsa))
    else:
        workload = Workload(name, ista_solver(farsa), reference=farsa_solver(farsa))
    generate = problems.wide_problem if name == "wide" else problems.tall_problem
    for index in range(problems.FILE_PROBLEMS):
        instance = Instance(generate(seed, index))
        path = work_dir / f"{name}-{index}.svm"
        problems.write_libsvm_text(instance.problem, path)
        workload.instances.append(instance)
        workload.setup_steps.append(_load_step(farsa, instance, path))
    return workload


def repeat_setup(workload: Workload) -> list[float]:
    """Time every setup step at least once, and repeat for a steadier median."""
    steps = workload.setup_steps
    times: list[float] = []
    started = perf_counter()
    while (
        len(times) < max(len(steps), SETUP_MIN_REPEATS)
        or perf_counter() - started < SETUP_MIN_SECONDS
    ):
        t0 = perf_counter()
        steps[len(times) % len(steps)]()
        times.append(perf_counter() - t0)
    return times


def warm_up(workload: Workload) -> None:
    """The first solves in a process pay for lazy imports and caches."""
    started = perf_counter()
    for instance in itertools.cycle(workload.instances):
        workload.solver.solve(instance.oracle, instance.problem.lam)
        if perf_counter() - started >= WARMUP_SECONDS:
            return


# -- checking ---------------------------------------------------------------


class Checker:
    """Counts attempted and failed solves; it runs outside timed regions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)

    def check(self, instance: Instance, report) -> bool:
        self.attempted += 1
        if report.status.value != "optimal":
            self._fail(f"status {report.status.value}")
            return False
        error = problems.check_solution(instance.problem, report.x_final, report.objective, EPSILON)
        if error is not None:
            self._fail(error)
        return error is None

    def check_all(self, results: list) -> None:
        for instance, report in results:
            self.check(instance, report)

    def cross_check(self, objective: float, reference: list) -> None:
        """The reference solver must reach the objective found for instance 0."""
        ((instance, other),) = reference
        if self.check(instance, other) and not abs(
            other.objective - objective
        ) <= CROSS_CHECK_RTOL * abs(objective):
            self._fail(f"objectives {objective!r} and {other.objective!r} disagree")


# -- measuring --------------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure_end_to_end(workload: Workload, seconds: float, checker: Checker) -> dict:
    """Untraced closed loop, cycling through the instances one solve at a time.

    Each answer is checked right after its timed solve and then dropped, so
    the heap the solves run against does not grow during the run.
    """
    setup_times = repeat_setup(workload)
    warm_up(workload)
    instances = workload.instances
    per_instance: list[list[float]] = [[] for _ in instances]
    solves = 0
    gc.collect()
    started = perf_counter()
    while perf_counter() - started < seconds or solves < len(instances):
        k = solves % len(instances)
        instance = instances[k]
        t0 = perf_counter()
        report = workload.solver.solve(instance.oracle, instance.problem.lam)
        per_instance[k].append(perf_counter() - t0)
        checker.check(instance, report)
        if solves == 0:
            objective = report.objective
        solves += 1
    if workload.reference is not None:
        _, reference = workload.run_unit(solver=workload.reference, count=1)
        checker.cross_check(objective, reference)
    return {
        # each instance's median, averaged over instances, so a run's value
        # does not hinge on one problem drawn from the seed
        "solve_s": statistics.fmean(statistics.median(t) for t in per_instance),
        "solve_samples": [t for ts in per_instance for t in ts],
        "setup_samples": setup_times,
    }


def _solver_counts(results: list, span: str) -> dict:
    counts: Counter = Counter()
    for _, report in results:
        counts[f"{span}.iterations"] += report.iterations
        if span == "solver":
            counts["solver.phi_iterations"] += report.phi_iterations
            counts["solver.beta_iterations"] += report.beta_iterations
    return counts


def _unit_counts(totals: dict, results: list, span: str) -> dict:
    sources = dict(totals, report=_solver_counts(results, span))
    return {name: sources[source].get(key, 0) for name, source, key in COUNT_METRICS}


def measure_per_layer(farsa, workload: Workload, seconds: float, checker: Checker) -> dict:
    """Alternate untraced and traced units; the traced ones give the layer totals.

    A unit solves every instance once.  The cross-check solve of instance 0
    by the reference solver is traced as a unit of its own; the top layer of
    that solver (``ista`` on tall) is measured there.
    """
    tracer = Tracer()
    with tracer.installed(farsa):
        tracer.begin_unit(-1)
        repeat_setup(workload)
        setup_totals = tracer.unit_totals()
    load_s = [end - start for _, name, start, end, _ in tracer.spans if name == "datasets.load"]
    warm_up(workload)

    untraced_s: list[float] = []
    traced_s: list[float] = []
    units: list[dict] = []
    counts: list[dict] = []
    gc.collect()
    started = perf_counter()
    while perf_counter() - started < seconds or not units:
        elapsed, results = workload.run_unit()
        untraced_s.append(elapsed)
        checker.check_all(results)
        objective = results[0][1].objective
        with tracer.installed(farsa):
            tracer.begin_unit(len(units))
            elapsed, results = workload.run_unit(tracer)
            units.append(tracer.unit_totals())
        traced_s.append(elapsed)
        checker.check_all(results)
        counts.append(_unit_counts(units[-1], results, workload.solver.span))

    top = {workload.solver.span: units}
    layer_counts = dict(counts[0])
    fired = set(units[0]["calls"]) | set(setup_totals["calls"])
    if workload.reference is not None:
        with tracer.installed(farsa):
            tracer.begin_unit(len(units))
            _, reference = workload.run_unit(tracer, workload.reference, count=1)
            ref_totals = tracer.unit_totals()
        checker.cross_check(objective, reference)
        span = workload.reference.span
        top[span] = [ref_totals]
        # the cross-check solve stands in only for its own top layer
        if ref_totals["calls"].get(span):
            fired.add(span)
        for name, value in _solver_counts(reference, span).items():
            layer_counts[name] = value

    missing = sorted(EXPECTED_SPANS[workload.name] - fired)
    if missing:
        raise RuntimeError(f"expected spans recorded no calls on {workload.name}: {missing}")
    if any(c != counts[0] for c in counts[1:]):
        raise RuntimeError(f"per-layer counts differ between units on {workload.name}")

    metrics: dict[str, tuple[float, str]] = {
        "datasets.load.self_s": (statistics.median(load_s) if load_s else 0.0, "s"),
        "datasets.bytes_read": (
            setup_totals["counters"].get("datasets.bytes_read", 0) // max(len(load_s), 1),
            "bytes",
        ),
    }
    for name, value in layer_counts.items():
        metrics[name] = (value, "count")
    for span in SELF_TIME_SPANS:
        measured = top.get(span, units)
        metrics[f"{span}.self_s"] = (
            statistics.median(u["self_s"].get(span, 0.0) for u in measured),
            "s",
        )
    counters = units[0]["counters"]
    metrics["linalg.bytes_computed"] = (counters.get("linalg.bytes_computed", 0), "bytes")
    trials = counters.get("linesearch.trials", 0)
    metrics["linesearch.accept_ratio"] = (
        counters.get("linesearch.searches", 0) / trials if trials else 0.0,
        "ratio",
    )
    metrics["trace.overhead"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        "ratio",
    )
    return {"layers": metrics, "tracer": tracer}


# -- reporting --------------------------------------------------------------


def _summary_line(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return f"  {name:<13} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    farsa = import_farsa()
    env = environment(seed)
    checker = Checker()
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = build_workload(farsa, name, seed, work_dir)
        if trace:
            measured = measure_per_layer(farsa, workload, seconds, checker)
        else:
            measured = measure_end_to_end(workload, seconds, checker)
    finally:
        shutil.rmtree(work_dir)

    mode = "traced" if trace else "untraced"
    print(
        f"# {name} seed={seed}: {mode}, closed loop, 1 client, "
        f"{len(workload.instances)} problems"
    )
    print("# env " + json.dumps(env, sort_keys=True))
    if trace:
        tracer = measured["tracer"]
        spans_path = WORK_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for metric, (value, unit) in measured["layers"].items():
            print(f"  {metric:<34} {value:.6g} {unit}")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in measured["layers"].items()}
    else:
        samples = measured["solve_samples"]
        rss = peak_rss_mb()
        print(_summary_line("solve_s", samples, "s"))
        print(f"  {'':<13} mean of per-problem medians {measured['solve_s']:.6g} s")
        # a percentile is reported only with at least ten samples beyond it
        if len(samples) >= 100:
            p90 = statistics.quantiles(samples, n=10)[8]
            print(f"  {'solve_s_p90':<13} {p90:.6g} s  n={len(samples)}")
        print(_summary_line("setup_s", measured["setup_samples"], "s"))
        print(f"  {'peak_rss_mb':<13} {rss:.6g} MB  n=1")
        metrics = {
            "solve_s": {"value": measured["solve_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(measured["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    rate = checker.failed / checker.attempted
    print(f"  {'failure_rate':<13} {checker.failed}/{checker.attempted} = {rate:.6g}")
    for error in checker.errors:
        print(f"# failed: {error}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
