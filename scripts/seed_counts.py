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

Each seed's row also gets two memory figures from ``tracemalloc``, over a
pass that loads every problem and solves it once without the tracer: the
peak of traced bytes during that pass, and the bytes it still holds at its
end (the loaded matrices and oracles, and the reports).  The inputs that
``bench/run.py`` generates are allocated before tracing starts and are not
counted.  Each seed's pass runs in a process of its own (this script again,
with ``--memory-pass``), since interpreter caches and free lists that
earlier seeds fill in a shared process move a seed's figures by tens of
kB.  Like the counts, both figures then repeat exactly when the same
command runs again, whatever the seed list, so a memory change gets a gate
that does not depend on the machine's speed.  Python and numpy key some
internal tables by string hash or object address, which moves the traced
bytes by a few kB from process to process; so the script runs itself again
under ``PYTHONHASHSEED=0`` and ``setarch -R`` (no address randomization)
unless both are already in effect, and says so where ``setarch`` is
missing or refused.  Another environment can still move the figures by a
few kB, about 0.05% of tall's.

With ``--base`` the revision is extracted as ``scripts/paired_bench.py``
does (with the working tree's ``bench/``), counted there, and printed
before the working tree's counts.  The output then ends with one line per
seed saying whether its sha256 and counts equal the base's, with the
change in its two memory figures.  The exit status is 1 if any solve on
either side failed, whatever the comparison says.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = (
    "objectives.value.calls",
    "objectives.hessian_product.calls",
    "linalg.spmv.calls",
    "subproblem.cg_solve.calls",
)
# tracemalloc figures of the untraced pass, not summed in the total row
MEMORY_COLUMNS = ("tracemalloc.peak_bytes", "tracemalloc.held_bytes")
# the personality flag that setarch -R sets
ADDR_NO_RANDOMIZE = 0x0040000


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


def memory_pass(workload) -> tuple[int, int]:
    """Traced bytes of one untraced setup-plus-solve pass: its peak, and what it still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        for step in workload.setup_steps:
            step()
        _, results = workload.run_unit()
        # read while the reports are referenced, so that held counts them
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


@contextmanager
def generated(run, workload_name: str, seed: int):
    """The benchmark's workload for this seed, its files kept until the block ends."""
    farsa = run.import_farsa()
    work_dir = run.WORK_DIR / f"counts-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        yield run.build_workload(farsa, workload_name, seed, work_dir)
    finally:
        shutil.rmtree(work_dir)


def seed_memory(workload_name: str, seed: int) -> tuple[int, int]:
    """A seed's memory figures (peak, held), from a process of its own."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--memory-pass",
        "--workload", workload_name, "--seeds", str(seed),
    ]  # fmt: skip
    done = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
    peak, held = (int(value) for value in done.stdout.split())
    return peak, held


def print_memory_pass(workload_name: str, seed: int) -> int:
    """Print one seed's peak and held bytes, as ``seed_memory`` reads them."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    with generated(run, workload_name, seed) as workload:
        print(*memory_pass(workload))
    return 0


def seed_counts(run, workload_name: str, seed: int) -> tuple[Counter, tuple[int, int], list[str], str]:
    """A seed's counts, memory figures (peak, held), failed solves and hash."""
    memory = seed_memory(workload_name, seed)
    farsa = run.import_farsa()
    with generated(run, workload_name, seed) as workload:
        for step in workload.setup_steps:
            step()
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
    return counts, memory, failed, hash_reports(report for _, report in results)


def print_counts(workload: str, seeds: list[int]) -> tuple[int, dict]:
    """Count this checkout's solves; print a table and any failed solves.

    Returns the exit status and each seed's row as ``table_rows`` reads it
    back from the printed table.
    """
    # importing the benchmark pins BLAS to its one thread before numpy loads
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    totals: Counter = Counter()
    failed: list[str] = []
    rows = {}
    header = None
    for seed in seeds:
        counts, memory, seed_failed, digest = seed_counts(run, workload, seed)
        if header is None:
            header = list(counts)
            print(f"# {workload} at {ROOT}")
            print(
                f"{'seed':<6}"
                + "".join(f"{name:>34}" for name in header + list(MEMORY_COLUMNS))
                + "  sha256"
            )
        row = [counts[name] for name in header] + list(memory)
        print(f"{seed:<6}" + "".join(f"{value:>34,}" for value in row) + f"  {digest}")
        rows[seed] = (row[: len(header)], list(memory), digest)
        totals.update(counts)
        failed.extend(seed_failed)
    print(f"{'total':<6}" + "".join(f"{totals[name]:>34,}" for name in header))
    print(f"failed solves: {len(failed)}")
    for line in failed:
        print(f"  {line}")
    return (1 if failed else 0), rows


def table_rows(text: str) -> dict[int, tuple[list[int], list[int], str]]:
    """Each seed's (counts, memory figures, sha256) in a table ``print_counts`` printed."""
    rows = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0].isdigit():
            values = [int(value.replace(",", "")) for value in tokens[1:-1]]
            rows[int(tokens[0])] = (values[:-2], values[-2:], tokens[-1])
    return rows


def compare_rows(base_rows: dict, change_rows: dict, seeds: list[int]) -> None:
    """One line per seed: do its sha256 and counts equal the base's?"""
    print("# working tree against base")
    for seed in seeds:
        if seed not in base_rows or seed not in change_rows:
            print(f"seed {seed}: missing from a table")
            continue
        base_counts, base_memory, base_digest = base_rows[seed]
        counts, memory, digest = change_rows[seed]
        same = "equal" if (counts, digest) == (base_counts, base_digest) else "NOT equal"
        peak, held = (now - then for now, then in zip(memory, base_memory))
        print(
            f"seed {seed}: sha256 and counts {same}; "
            f"tracemalloc peak {peak:+,} B, held {held:+,} B"
        )


def layout_is_fixed() -> bool:
    """Whether string hashes and addresses repeat from process to process."""
    try:
        personality = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return False
    return os.environ.get("PYTHONHASHSEED") == "0" and bool(personality & ADDR_NO_RANDOMIZE)


def relaunch_with_fixed_layout(argv: list[str]) -> int | None:
    """Run this script again with both fixed; None if ``setarch -R`` is unavailable."""
    setarch = shutil.which("setarch")
    if setarch is None or subprocess.run([setarch, "-R", "true"], capture_output=True).returncode:
        return None
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [setarch, "-R", sys.executable, str(Path(__file__).resolve()), *argv]
    return subprocess.run(command, env=env, check=False).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-105", help="a range 101-105 or a list 101,103")
    parser.add_argument("--base", help="git revision to count as well, before the working tree")
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.memory_pass:
        # a child of seed_memory: it shares its parent's layout, fixed or not
        return print_memory_pass(args.workload, seeds[0])
    if not layout_is_fixed():
        status = relaunch_with_fixed_layout(sys.argv[1:] if argv is None else argv)
        if status is not None:
            return status
        print("# setarch -R unavailable: the memory figures may differ by a few kB between runs")
    if args.base is None:
        return print_counts(args.workload, seeds)[0]

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
        base_run = subprocess.run(command, cwd=base, check=False, stdout=subprocess.PIPE, text=True)
    print(base_run.stdout, end="")
    print("# working tree")
    change_status, change_rows = print_counts(args.workload, seeds)
    compare_rows(table_rows(base_run.stdout), change_rows, seeds)
    return 1 if base_run.returncode or change_status else 0


if __name__ == "__main__":
    sys.exit(main())
