#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Run from anywhere inside a source checkout:

    python3 scripts/paired_bench.py --base 324142b --workload small-batch \\
        --seed 101 --seconds 25 --pairs 10
    python3 scripts/paired_bench.py --in-process --base 324142b --workload wide \\
        --seed 101 --seconds 60 --pairs 400

The base revision is extracted into a temporary directory (``git archive``,
removed on exit) and its ``bench/`` is replaced by the working tree's, so
both sides run identical benchmark code.  Nothing under ``bench/`` is
changed.

Whole runs (the default): each pair runs ``bench/run.py`` once on each
side, one after the other, and the side that goes first alternates from
pair to pair.  For each end-to-end metric in ``BENCHMARK.json`` it prints
each side's median and quartiles, how many pairs the change won (ties count
for neither), and whether a gain may be claimed: the change wins at least
nine tenths of the pairs and the medians differ, in its favour, by more
than the base's interquartile range.  Progress and each run's values go to
stderr.

``--in-process``: one process loads the base's ``src/farsa`` and the
working tree's under two package names, generates the workload's problems
once per side (``bench/problems.py``, as ``bench/run.py`` does), sets up
each side's oracles with its own package, warms both up, then runs pairs
until ``--pairs`` pairs have run or ``--seconds`` have passed.  A pair
times one setup step on each side, then one solve unit on each side, in
the order A, B, then B, A in the next pair.  A setup step is what
``setup_s`` times: the whole batch's matrices and oracles on
``small-batch``, and one file's load plus its oracle on the file-backed
workloads (cycling through the files).  Its oracles are dropped, so the
solves keep the warmed-up ones.  A solve unit is one solve of one problem
on the file-backed workloads (both sides solve the same problem in a
pair, cycling through the problems) and one pass over all 200 problems on
``small-batch``.  For ``setup_s`` and ``solve_s`` it prints the median
over pairs of the change's time over the base's, with a bootstrap 95%
interval (2,000 resamples of the pairs).  Both sides share the host's
speed from moment to moment, so the ratio resolves changes of a few
percent that drift between whole runs hides; an interval that lies below
1.0 reads as a gain and one above as a loss.  Both sides also share one
allocator and one cache, so calibrate with a base equal to the working
tree (an A/A run) before trusting a small ratio.  Every solve is checked
as the benchmark checks it, outside the timed region; memory is not
measured in this mode.

The exit status is 1 if any run or solve fails, or a run reports
``"correct": false``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9
BOOTSTRAP_RESAMPLES = 2000


def extract_revision(rev: str, target: Path) -> None:
    """Write the tree of ``rev`` into ``target``, with the working tree's bench/."""
    archive = target / "base.tar"
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target / "base", filter="data")
    archive.unlink()
    shutil.rmtree(target / "base" / "bench")
    shutil.copytree(
        ROOT / "bench", target / "base" / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )


def run_bench(root: Path, args) -> dict:
    """One ``bench/run.py`` run in ``root``; its final JSON line, or a failed result."""
    command = [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(name: str, better: str, base: list[float], change: list[float]) -> str:
    """One report line for a metric, saying whether a gain may be claimed on it."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (b_med - c_med)
    claim = wins >= CLAIM_WIN_SHARE * len(base) and gap > b_q3 - b_q1
    return (
        f"{name:<12} base median {b_med:.6g} (q1 {b_q1:.6g}, q3 {b_q3:.6g})  "
        f"change median {c_med:.6g} (q1 {c_q1:.6g}, q3 {c_q3:.6g})  "
        f"{(c_med - b_med) / b_med:+.1%}  wins {wins}/{len(base)}  "
        f"gain claim {'holds' if claim else 'does not hold'}"
    )


def load_farsa(name: str, src: Path):
    """Import the package in ``src/farsa`` under the module name ``name``."""
    init = src / "farsa" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def median_ratio(base: list[float], change: list[float]) -> tuple[float, float, float]:
    """Median of change/base over pairs, with a percentile bootstrap 95% interval."""
    import numpy as np  # here, so that in_process pins BLAS before numpy loads

    logs = np.log(np.asarray(change) / np.asarray(base))
    rng = np.random.default_rng(0)
    resampled = np.median(rng.choice(logs, size=(BOOTSTRAP_RESAMPLES, logs.size)), axis=1)
    low, high = np.percentile(resampled, [2.5, 97.5])
    return math.exp(np.median(logs)), math.exp(low), math.exp(high)


def in_process(args, base_src: Path, work: Path) -> int:
    """Alternate setup steps and solves of the base and the working tree in this process."""
    # importing the benchmark pins BLAS to its one thread before numpy loads
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    workloads = {}
    for side, src in (("base", base_src), ("change", ROOT / "src")):
        farsa = load_farsa(f"farsa_{side}", src)
        work_dir = work / f"work-{side}"
        work_dir.mkdir()
        # the seed fixes the problems, so both sides get the same ones; the
        # files stay until the end, since setup steps load them again
        workloads[side] = run.build_workload(farsa, args.workload, args.seed, work_dir)
        for step in workloads[side].setup_steps:
            step()
        run.warm_up(workloads[side])

    checkers = {side: run.Checker() for side in workloads}

    def timed_setup(side: str, pair: int) -> float:
        workload = workloads[side]
        steps = workload.setup_steps
        oracles = [instance.oracle for instance in workload.instances]
        t0 = time.perf_counter()
        steps[pair % len(steps)]()
        elapsed = time.perf_counter() - t0
        for instance, oracle in zip(workload.instances, oracles):
            instance.oracle = oracle
        return elapsed

    def timed_solve(side: str, pair: int) -> float:
        workload = workloads[side]
        if args.workload == "small-batch":
            elapsed, results = workload.run_unit()
        else:
            instance = workload.instances[pair % len(workload.instances)]
            t0 = time.perf_counter()
            report = workload.solver.solve(instance.oracle, instance.problem.lam)
            elapsed, results = time.perf_counter() - t0, [(instance, report)]
        checkers[side].check_all(results)
        return elapsed

    times = {(metric, side): [] for metric in ("setup_s", "solve_s") for side in workloads}
    gc.collect()
    started = time.perf_counter()
    pairs = 0
    while pairs < max(args.pairs, 1) and (
        time.perf_counter() - started < args.seconds or not pairs
    ):
        order = ("base", "change") if pairs % 2 == 0 else ("change", "base")
        for metric, timed in (("setup_s", timed_setup), ("solve_s", timed_solve)):
            for side in order:
                times[metric, side].append(timed(side, pairs))
        pairs += 1

    print(
        f"# {args.workload} seed={args.seed} in-process pairs={pairs} "
        f"in {time.perf_counter() - started:.0f} s base={args.base}"
    )
    failed = {side: checker.failed for side, checker in checkers.items()}
    if any(failed.values()):
        errors = [e for checker in checkers.values() for e in checker.errors]
        print(f"# failed solves {failed}: {errors}")
        return 1
    for metric in ("setup_s", "solve_s"):
        base, change = times[metric, "base"], times[metric, "change"]
        ratio, low, high = median_ratio(base, change)
        print(
            f"{metric:<12} base median {statistics.median(base):.6g}  "
            f"change median {statistics.median(change):.6g}  "
            f"change/base {ratio:.3f} [{low:.3f}, {high:.3f}]"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="alternate setup steps and solves of both revisions in this process "
        "(setup_s and solve_s)",
    )
    args = parser.parse_args(argv)
    if args.in_process:
        with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
            extract_revision(args.base, Path(tmp))
            return in_process(args, Path(tmp) / "base" / "src", Path(tmp))

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        extract_revision(args.base, Path(tmp))
        roots = {"base": Path(tmp) / "base", "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(roots[side], args)
                results[side].append(result)
                values = " ".join(
                    f"{name}={result['metrics'][name]['value']:.6g}"
                    for name in (m["name"] for m in metrics)
                    if name in result["metrics"]
                )
                print(
                    f"pair {pair + 1} {side:<6} correct={result['correct']} {values}",
                    file=sys.stderr,
                )

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} "
        f"pairs={args.pairs} base={args.base}"
    )
    correct = all(r["correct"] for side in results.values() for r in side)
    if not correct:
        print("# some runs failed or reported correct: false; no metric is summarized")
        return 1
    for metric in metrics:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        print(summarize(name, metric["better"], base, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
