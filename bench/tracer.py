"""Outside-in tracing of the farsa layers.

Each layer's public function is replaced, for the duration of a traced
run, by a wrapper installed at the name its caller looks up.  ``solver``
binds ``linesearch_phi``/``linesearch_beta``/``cg_solve`` and
``optimality_measures`` at import, so those are patched on
``farsa.solver`` (and ``farsa.ista``); patching ``farsa.linesearch`` would
never fire.  ``LogisticObjective`` resolves ``spmv``/``spmv_transpose``
through ``farsa.objectives``.  Methods are patched on their class.

Spans (unit, name, start, end, parent) are kept in memory and written when
the run ends.  A span's self time is its duration minus the durations of
its direct children; per-unit totals of calls, self time and counters are
what the per-layer metrics are built from.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["Tracer"]

# An accepted step whose |F(next) - F(x)| is within this many ulps of |F(x)|
# made no progress the objective can resolve.
_STALL_ULPS = 32.0


def _csr_bytes(matrix) -> int:
    # one CSR product reads values (8 B) and column indices (8 B) per stored
    # entry, the row offsets, the input vector, and writes the output vector
    return 16 * matrix.nnz + 8 * (matrix.n_rows + 1) + 8 * (matrix.n_rows + matrix.n_cols)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.unit = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_unit(self, unit: int) -> None:
        """Start a unit of work (one solve, or one pass over a batch)."""
        self.unit = unit
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()

    def unit_totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.unit, name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (self.unit, name, start, end, parent)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, name, fn, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    # -- patches -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self, farsa):
        """Patch every layer boundary of the given farsa package; undo on exit."""
        solver, objectives = farsa.solver, farsa.objectives
        oracle_cls, matrix_cls = farsa.LogisticObjective, farsa.SparseMatrix
        wrap = self._wrap

        def count_bytes(result, matrix, x):
            self.counters["linalg.bytes_computed"] += _csr_bytes(matrix)

        def count_cols(result, matrix, indices):
            self.counters["linalg.column_submatrix.cols"] += len(indices)

        def count_cg(result, *args):
            self.counters["subproblem.cg_iterations"] += result.iterations

        def count_read(result, path, *args):
            self.counters["datasets.bytes_read"] += Path(path).stat().st_size

        setup = wrap("objectives.hessian_setup", oracle_cls.reduced_hessian_operator)

        @wraps(oracle_cls.reduced_hessian_operator)
        def hessian_operator(*args, **kwargs):
            return wrap("objectives.hessian_product", setup(*args, **kwargs))

        try:
            self._patch(farsa, "load_dataset", wrap("datasets.load", farsa.load_dataset, count_read))
            self._patch(objectives, "spmv", wrap("linalg.spmv", objectives.spmv, count_bytes))
            self._patch(
                objectives,
                "spmv_transpose",
                wrap("linalg.spmv_transpose", objectives.spmv_transpose, count_bytes),
            )
            self._patch(
                matrix_cls,
                "column_submatrix",
                wrap("linalg.column_submatrix", matrix_cls.column_submatrix, count_cols),
            )
            self._patch(oracle_cls, "value", wrap("objectives.value", oracle_cls.value))
            self._patch(oracle_cls, "gradient", wrap("objectives.gradient", oracle_cls.gradient))
            self._patch(oracle_cls, "reduced_hessian_operator", hessian_operator)
            for module in (solver, farsa.ista):
                self._patch(
                    module,
                    "optimality_measures",
                    wrap("optimality.measures", module.optimality_measures),
                )
            self._patch(solver, "cg_solve", wrap("subproblem.cg_solve", solver.cg_solve, count_cg))
            self._patch(solver, "linesearch_phi", self._search("linesearch.phi", solver.linesearch_phi))
            self._patch(
                solver, "linesearch_beta", self._search("linesearch.beta", solver.linesearch_beta)
            )
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _search(self, name: str, fn):
        """Wrap a line search, recording its trial evaluations and progress."""
        @wraps(fn)
        def wrapper(f_total, *args, **kwargs):
            values: list[float] = []

            def recorded(x):
                value = f_total(x)
                values.append(value)
                return value

            with self.span(name):
                result = fn(recorded, *args, **kwargs)
            counters = self.counters
            counters["linesearch.searches"] += 1
            # the first evaluation is F(x); every later one is a trial, and
            # the search returns right after evaluating the accepted point
            counters["linesearch.trials"] += len(values) - 1
            counters["linesearch.backtracks"] += result.backtracks
            counters["linesearch.max_backtracks"] = max(
                counters["linesearch.max_backtracks"], result.backtracks
            )
            f_x, f_next = values[0], values[-1]
            if abs(f_next - f_x) <= _STALL_ULPS * np.spacing(abs(f_x)):
                counters["linesearch.stalled_steps"] += 1
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for unit, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"unit": unit, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
