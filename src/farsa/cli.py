"""Command-line front end: single solves and tolerance sweeps.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on I/O or dataset-format errors, 2 on solver failure (usage errors exit
with argparse's conventional status 2 as well).  Solve timing uses a
monotonic clock and excludes parsing, which is done once up front.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .datasets import (
    Dataset,
    DatasetFormatError,
    load_dataset,
    relabel_binary_mnist,
    scale_minus1_1,
    scale_pixels,
)
from .ista import IstaConfig, ista_solve
from .objectives import LogisticObjective
from .solver import SolveReport, SolverConfig, SolveStatus, solve

__all__ = ["main", "run", "build_parser"]

DEFAULT_TOLERANCES = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r}: must be positive and finite")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r}: must be positive")
    return value


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("epsilon must be positive and finite")
    return value


def _scale_mode(text: str) -> str:
    if text in ("none", "minus1-1"):
        return text
    if text.startswith("pixels:"):
        bits = text.removeprefix("pixels:")
        if bits.isdigit() and int(bits) > 0:
            return text
    raise argparse.ArgumentTypeError(
        f"{text!r}: expected one of none, minus1-1, pixels:<bits>"
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="LIBSVM file (.gz supported)")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_positive_float,
        default=None,
        help="l1 weight (default: 1/number of samples)",
    )
    parser.add_argument("--max-iter", type=_positive_int, default=1000)
    parser.add_argument(
        "--time-limit", type=_positive_float, default=600.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--scale",
        type=_scale_mode,
        default="none",
        help="none, minus1-1, or pixels:<bits> (pixels also applies the "
        "digit 0-4/5-9 to -1/+1 relabeling)",
    )
    parser.add_argument(
        "--solver", choices=["farsa", "ista"], default="farsa"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farsa",
        description="Reduced-space active-set solver for l1-regularized "
        "logistic regression on LIBSVM data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and report")
    _add_common_arguments(p_solve)
    p_solve.add_argument("--epsilon", type=_epsilon, default=1e-6)
    p_solve.add_argument(
        "--output", choices=["human", "json", "csv"], default="human"
    )
    p_solve.add_argument(
        "--trace", default=None, metavar="PATH", help="write per-iteration CSV"
    )
    p_solve.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="solve this many times and report the mean time",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser(
        "sweep", help="solve once per tolerance, emit CSV on stdout"
    )
    _add_common_arguments(p_sweep)
    p_sweep.add_argument(
        "--tolerances",
        default=DEFAULT_TOLERANCES,
        help="comma-separated list of termination tolerances",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _load(args: argparse.Namespace) -> Dataset:
    if args.scale.startswith("pixels:"):
        bits = int(args.scale.removeprefix("pixels:"))
        dataset = load_dataset(args.data, normalize_labels=False)
        dataset = Dataset(
            matrix=dataset.matrix,
            labels=relabel_binary_mnist(dataset.labels),
            name=dataset.name,
        )
        return scale_pixels(dataset, bits)
    dataset = load_dataset(args.data)
    if args.scale == "minus1-1":
        dataset = scale_minus1_1(dataset)
    return dataset


def _run_solver(args, oracle, lam: float, epsilon: float) -> SolveReport:
    if args.solver == "ista":
        config = IstaConfig(epsilon=epsilon, max_iter=args.max_iter)
        return ista_solve(oracle, lam, config)
    config = SolverConfig(
        lam=lam,
        epsilon=epsilon,
        max_iter=args.max_iter,
        time_limit=args.time_limit,
    )
    return solve(oracle, config)


def _report_dict(
    args, dataset: Dataset, lam: float, epsilon: float, report: SolveReport,
    mean_time: float,
) -> dict:
    return {
        "dataset": dataset.name,
        "solver": args.solver,
        "n_samples": dataset.n_samples,
        "n_features": dataset.n_features,
        "lambda": lam,
        "epsilon": epsilon,
        "status": report.status.value,
        "objective": report.objective,
        "percent_zeros": report.percent_zeros,
        "iterations": report.iterations,
        "phi_iterations": report.phi_iterations,
        "beta_iterations": report.beta_iterations,
        "time_seconds": mean_time,
        "repeats": args.repeat,
    }


def _write_trace(path: str, report: SolveReport) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "k",
                "type",
                "objective",
                "beta_norm",
                "phi_norm",
                "support_size",
                "cg_iterations",
                "step_size",
                "elapsed",
            ]
        )
        for r in report.trace:
            writer.writerow(
                [
                    r.k,
                    r.type.value,
                    repr(r.objective),
                    repr(r.beta_norm),
                    repr(r.phi_norm),
                    r.support_size,
                    r.cg_iterations,
                    repr(r.step_size),
                    repr(r.elapsed),
                ]
            )


def cmd_solve(args: argparse.Namespace) -> int:
    dataset = _load(args)
    lam = args.lam if args.lam is not None else 1.0 / dataset.n_samples
    oracle = LogisticObjective(dataset.matrix, dataset.labels)

    times = []
    report = None
    for _ in range(args.repeat):
        start = time.perf_counter()
        report = _run_solver(args, oracle, lam, args.epsilon)
        times.append(time.perf_counter() - start)
    mean_time = float(np.mean(times))

    if args.trace:
        _write_trace(args.trace, report)

    payload = _report_dict(args, dataset, lam, args.epsilon, report, mean_time)
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    elif args.output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
    else:
        print(f"dataset        {dataset.name} ({dataset.n_samples} x {dataset.n_features})")
        print(f"solver         {args.solver}")
        print(f"lambda         {lam:.6g}")
        print(f"epsilon        {args.epsilon:.6g}")
        print(f"status         {report.status.value}")
        print(f"objective      {report.objective:.12g}")
        print(f"percent zeros  {report.percent_zeros:.1f}")
        if args.solver == "farsa":
            print(
                f"iterations     {report.iterations} "
                f"(phi {report.phi_iterations}, beta {report.beta_iterations})"
            )
        else:
            print(f"iterations     {report.iterations}")
        print(f"time (mean s)  {mean_time:.6g}")
    if report.status is SolveStatus.LINE_SEARCH_FAILURE:
        print("solver failed: line search could not make progress", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    text = args.tolerances.strip()
    tolerances = [t for t in (s.strip() for s in text.split(",")) if t]
    if not tolerances:
        raise UsageError("empty tolerance list")
    try:
        eps_values = [float(t) for t in tolerances]
    except ValueError as exc:
        raise UsageError(f"bad tolerance: {exc}") from None
    if not all(0 < e < math.inf for e in eps_values):
        raise UsageError("epsilon must be positive and finite")

    dataset = _load(args)
    lam = args.lam if args.lam is not None else 1.0 / dataset.n_samples
    oracle = LogisticObjective(dataset.matrix, dataset.labels)

    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["tolerance", "time_seconds", "iterations", "objective", "percent_zeros"]
    )
    failed = False
    for eps in eps_values:
        start = time.perf_counter()
        report = _run_solver(args, oracle, lam, eps)
        elapsed = time.perf_counter() - start
        writer.writerow(
            [
                repr(eps),
                repr(elapsed),
                report.iterations,
                repr(report.objective),
                repr(report.percent_zeros),
            ]
        )
        if report.status is SolveStatus.LINE_SEARCH_FAILURE:
            failed = True
    return 2 if failed else 0


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with status 2
    except (OSError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
