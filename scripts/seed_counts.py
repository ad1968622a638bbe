#!/usr/bin/env python3
"""Traced solver counts over several seeds: the five-seed count gate.

Run from anywhere inside a source checkout:

    python3 scripts/seed_counts.py --workload wide
    python3 scripts/seed_counts.py --workload tall --seeds 101-105 --base 1325563

For each seed it builds the benchmark's workload (``bench/run.py``),
solves every problem once with ``bench/tracer.py``'s ``Tracer`` installed,
and prints the solver's iterations and the calls of
``objectives.value``, ``objectives.hessian_product``, ``linalg.spmv`` and
``subproblem.cg_solve`` (phi steps that ran CG rather than a Newton step),
per seed and in total.  Each seed's row ends in a sha256 over every solve's
``x_final``, objective and record fields except ``elapsed``, as
``tests/test_reductions.py`` hashes reports: equal hashes on both sides of
``--base`` mean bitwise equal results.  Each solve is checked as the
benchmark checks it (status OPTIMAL and ``problems.check_solution``);
failed solves are listed.  Nothing under ``bench/`` is changed.

With ``--base`` the revision is extracted as ``scripts/paired_bench.py``
does (with the working tree's ``bench/``), counted there, and printed
before the working tree's counts.  The exit status is 1 if any solve on
either side failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = (
    "objectives.value.calls",
    "objectives.hessian_product.calls",
    "linalg.spmv.calls",
    "subproblem.cg_solve.calls",
)


def parse_seeds(text: str) -> list[int]:
    """``101-105`` or ``101,103``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def hash_reports(reports) -> str:
    """sha256 over each report's x_final, objective and record fields but the wall clock."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.x_final.tobytes())
        digest.update(repr(report.objective).encode())
        for record in report.trace:
            for field in dataclasses.fields(record):
                if field.name != "elapsed":
                    digest.update(repr(getattr(record, field.name)).encode())
    return digest.hexdigest()


def seed_counts(run, workload_name: str, seed: int) -> tuple[Counter, list[str], str]:
    """One traced pass over a seed's problems: its counts, failed solves and hash."""
    farsa = run.import_farsa()
    work_dir = run.WORK_DIR / f"counts-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = run.build_workload(farsa, workload_name, seed, work_dir)
        for step in workload.setup_steps:
            step()
    finally:
        shutil.rmtree(work_dir)
    tracer = run.Tracer()
    with tracer.installed(farsa):
        tracer.begin_unit(0)
        _, results = workload.run_unit(tracer)
    iterations = f"{workload.solver.span}.iterations"
    counts = Counter({iterations: 0})
    failed = []
    for index, (instance, report) in enumerate(results):
        counts[iterations] += report.iterations
        if report.status.value != "optimal":
            error = f"status {report.status.value}"
        else:
            error = run.problems.check_solution(
                instance.problem, report.x_final, report.objective, run.EPSILON
            )
        if error is not None:
            failed.append(f"seed {seed} problem {index}: {error}")
    for column in COLUMNS:
        counts[column] = tracer.calls[column.removesuffix(".calls")]
    return counts, failed, hash_reports(report for _, report in results)


def print_counts(workload: str, seeds: list[int]) -> int:
    """Count this checkout's solves; print a table and any failed solves."""
    # importing the benchmark pins BLAS to its one thread before numpy loads
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    totals: Counter = Counter()
    failed: list[str] = []
    header = None
    for seed in seeds:
        counts, seed_failed, digest = seed_counts(run, workload, seed)
        if header is None:
            header = list(counts)
            print(f"# {workload} at {ROOT}")
            print(f"{'seed':<6}" + "".join(f"{name:>34}" for name in header) + "  sha256")
        print(f"{seed:<6}" + "".join(f"{counts[name]:>34,}" for name in header) + f"  {digest}")
        totals.update(counts)
        failed.extend(seed_failed)
    print(f"{'total':<6}" + "".join(f"{totals[name]:>34,}" for name in header))
    print(f"failed solves: {len(failed)}")
    for line in failed:
        print(f"  {line}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-105", help="a range 101-105 or a list 101,103")
    parser.add_argument("--base", help="git revision to count as well, before the working tree")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.base is None:
        return print_counts(args.workload, seeds)

    from paired_bench import extract_revision

    with tempfile.TemporaryDirectory(prefix="seed-counts-") as tmp:
        extract_revision(args.base, Path(tmp))
        base = Path(tmp) / "base"
        script = base / "scripts" / Path(__file__).name
        script.parent.mkdir(exist_ok=True)
        shutil.copy(__file__, script)
        print(f"# base {args.base}")
        sys.stdout.flush()
        command = [sys.executable, str(script), "--workload", args.workload, "--seeds", args.seeds]
        base_status = subprocess.run(command, cwd=base, check=False).returncode
    print("# working tree")
    change_status = print_counts(args.workload, seeds)
    return 1 if base_status or change_status else 0


if __name__ == "__main__":
    sys.exit(main())
