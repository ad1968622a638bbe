#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Run from anywhere inside a source checkout:

    python3 scripts/paired_bench.py --base 324142b --workload small-batch \\
        --seed 101 --seconds 25 --pairs 10

The base revision is extracted into a temporary directory (``git archive``,
removed on exit) and its ``bench/`` is replaced by the working tree's, so
both sides run identical benchmark code.  Each pair runs ``bench/run.py``
once on each side, one after the other, and the side that goes first
alternates from pair to pair.  Nothing under ``bench/`` is changed.

For each end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither), and whether a gain may be claimed: the change wins at least nine
tenths of the pairs and the medians differ, in its favour, by more than the
base's interquartile range.  Progress and each run's values go to stderr.
The exit status is 1 if any run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)

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
