"""Command-line front end: single solves and tolerance sweeps.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on I/O or dataset-format errors, 2 on solver failure (usage errors exit
with argparse's conventional status 2 as well).  Solve timing uses a
monotonic clock and excludes parsing, which is done once up front.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from collections.abc import Callable
from enum import Enum

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
from .solver import (
    IterationRecord,
    SolveReport,
    SolverConfig,
    SolveStatus,
    _check_positive,
    _check_time_limit,
    solve,
)

__all__ = ["main", "run", "build_parser"]

DEFAULT_TOLERANCES = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r}: must be positive")
    return value


def _float_flag(name: str, check=_check_positive) -> Callable[[str], float]:
    """The argparse type of a float flag: a number that ``check`` accepts,
    named ``name`` in its message."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r}: not a number") from None
        try:
            return check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_epsilon = _float_flag("epsilon")


def _tolerances(text: str) -> list[float]:
    """A comma-separated list of epsilons; empty entries are skipped."""
    tolerances = [_epsilon(t) for t in (s.strip() for s in text.split(",")) if t]
    if not tolerances:
        raise argparse.ArgumentTypeError("empty tolerance list")
    return tolerances


def _scale_mode(text: str) -> tuple[str, int | None]:
    """(mode, bits): ("none", None), ("minus1-1", None) or ("pixels", bits)."""
    if text in ("none", "minus1-1"):
        return text, None
    if text.startswith("pixels:"):
        bits = text.removeprefix("pixels:")
        # scale_pixels' range: above 53 bits 2^bits - 1 is not a float64
        if bits.isdigit() and 1 <= int(bits) <= 53:
            return "pixels", int(bits)
    raise argparse.ArgumentTypeError(
        f"{text!r}: expected one of none, minus1-1, pixels:<bits> with bits in 1-53"
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="LIBSVM file (.gz supported)")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_float_flag("lambda"),
        default=None,
        help="l1 weight (default: 1/number of samples)",
    )
    parser.add_argument(
        "--max-iter",
        type=_positive_int,
        help=f"iteration budget (default: {SolverConfig.max_iter} farsa, "
        f"{IstaConfig.max_iter} ista)",
    )
    parser.add_argument(
        "--time-limit",
        type=_float_flag("time-limit", _check_time_limit),
        metavar="SECONDS",
        help=f"wall-time budget of each farsa solve (default: {SolverConfig.time_limit}; "
        "inf for no limit; ignored by --solver ista)",
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
    p_solve.add_argument(
        "--epsilon", type=_epsilon, help=f"termination tolerance (default: {SolverConfig.epsilon})"
    )
    p_solve.add_argument(
        "--output", choices=["human", "json", "csv"], default="human"
    )
    p_solve.add_argument(
        "--trace", default=None, metavar="PATH", help="write per-iteration CSV (farsa only)"
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
        type=_tolerances,
        default=DEFAULT_TOLERANCES,
        help="comma-separated list of termination tolerances",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _problem(args: argparse.Namespace) -> tuple[Dataset, float, LogisticObjective]:
    """The dataset as ``--scale`` asks, lambda (default 1/samples) and the oracle."""
    mode, bits = args.scale
    dataset = load_dataset(args.data, normalize_labels=mode != "pixels")
    if mode == "pixels":
        dataset = dataclasses.replace(dataset, labels=relabel_binary_mnist(dataset.labels))
        dataset = scale_pixels(dataset, bits)
    elif mode == "minus1-1":
        dataset = scale_minus1_1(dataset)
    lam = args.lam if args.lam is not None else 1.0 / dataset.n_samples
    return dataset, lam, LogisticObjective(dataset.matrix, dataset.labels)


def _solver(
    args, oracle, lam: float, epsilon: float | None
) -> tuple[IstaConfig | SolverConfig, Callable[[], SolveReport]]:
    """The chosen solver's config (flags not given keep its defaults) and a
    call that runs it on ``oracle``."""
    given = {"epsilon": epsilon, "max_iter": args.max_iter, "time_limit": args.time_limit}
    given = {name: value for name, value in given.items() if value is not None}
    if args.solver == "ista":
        given.pop("time_limit", None)
        config = IstaConfig(**given)
        return config, lambda: ista_solve(oracle, lam, config)
    config = SolverConfig(lam=lam, **given)
    return config, lambda: solve(oracle, config)


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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        names = [f.name for f in dataclasses.fields(IterationRecord)]
        writer.writerow(names)
        for record in report.trace:
            values = (getattr(record, name) for name in names)
            writer.writerow(v.value if isinstance(v, Enum) else repr(v) for v in values)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace and args.solver == "ista":
        print("error: --trace is not available with --solver ista", file=sys.stderr)
        return 2
    dataset, lam, oracle = _problem(args)
    config, run_solver = _solver(args, oracle, lam, args.epsilon)
    times = []
    report = None
    for _ in range(args.repeat):
        start = time.perf_counter()
        report = run_solver()
        times.append(time.perf_counter() - start)
    mean_time = float(np.mean(times))

    if args.trace:
        _write_trace(args.trace, report)

    payload = _report_dict(args, dataset, lam, config.epsilon, report, mean_time)
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
        print(f"epsilon        {config.epsilon:.6g}")
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
    _, lam, oracle = _problem(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["tolerance", "time_seconds", "iterations", "objective", "percent_zeros"]
    )
    failed = False
    for eps in args.tolerances:
        _, run_solver = _solver(args, oracle, lam, eps)
        start = time.perf_counter()
        report = run_solver()
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
