"""LIBSVM-format ingestion, label normalization, and feature scalings.

Parsing is streaming: the file is read line by line into growable flat
arrays, so peak memory is proportional to the number of stored entries plus
the number of rows, never to rows*columns.  Column indices in files are
1-based; in memory everything is 0-based.
"""

from __future__ import annotations

import gzip
from array import array
from dataclasses import dataclass, replace
from os import PathLike
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .linalg import SparseMatrix

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "parse_libsvm",
    "load_dataset",
    "write_libsvm",
    "scale_minus1_1",
    "scale_max_abs",
    "scale_pixels",
    "relabel_binary_mnist",
]


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line number."""


@dataclass(frozen=True)
class Dataset:
    """A design matrix with +-1 labels (one per row)."""

    matrix: SparseMatrix
    labels: np.ndarray
    name: str = ""
    scaled: bool = False

    def __post_init__(self):
        if self.labels.shape != (self.matrix.n_rows,):
            raise ValueError(
                f"expected {self.matrix.n_rows} labels, got {self.labels.shape}"
            )

    @property
    def n_samples(self) -> int:
        return self.matrix.n_rows

    @property
    def n_features(self) -> int:
        return self.matrix.n_cols


def _normalize_label(raw: float, line_no: int) -> float:
    # "+1"/"1" -> +1; "-1"/"0" -> -1 (0/1-labeled files)
    if raw == 1.0:
        return 1.0
    if raw == -1.0 or raw == 0.0:
        return -1.0
    raise DatasetFormatError(
        f"line {line_no}: unknown label {raw!r} (expected +1, 1, -1, or 0)"
    )


def parse_libsvm(
    source: Iterable[str] | IO[str],
    n_features: int | None = None,
    normalize_labels: bool = True,
    name: str = "",
) -> Dataset:
    """Parse "<label> <idx>:<val> ..." lines into a Dataset.

    Indices must be 1-based and strictly increasing within a line; blank
    lines are skipped.  The column count is the largest index seen unless
    ``n_features`` forces a wider matrix (for files whose trailing features
    are all zero).  With ``normalize_labels=False`` raw numeric labels are
    kept (digit-labeled files need relabeling before use as a Dataset).
    """
    labels = array("d")
    values = array("d")
    col_indices = array("q")
    row_offsets = array("q", [0])
    max_col = -1

    for line_no, line in enumerate(source, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise DatasetFormatError(
                f"line {line_no}: malformed label token {tokens[0]!r}"
            ) from None
        if normalize_labels:
            labels.append(_normalize_label(raw_label, line_no))
        else:
            labels.append(raw_label)
        prev_col = -1
        for token in tokens[1:]:
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise DatasetFormatError(
                    f"line {line_no}: malformed feature token {token!r}"
                )
            try:
                col = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise DatasetFormatError(
                    f"line {line_no}: malformed feature token {token!r}"
                ) from None
            if col < 1:
                raise DatasetFormatError(
                    f"line {line_no}: feature index {col} is not 1-based"
                )
            col -= 1
            if col <= prev_col:
                raise DatasetFormatError(
                    f"line {line_no}: feature indices not strictly increasing at {token!r}"
                )
            prev_col = col
            col_indices.append(col)
            values.append(val)
        max_col = max(max_col, prev_col)
        row_offsets.append(len(values))

    n_rows = len(labels)
    if n_rows == 0:
        raise DatasetFormatError("no samples in input")
    n_cols = max_col + 1
    if n_features is not None:
        if n_features < n_cols:
            raise DatasetFormatError(
                f"n_features={n_features} is smaller than the largest index {n_cols}"
            )
        n_cols = n_features

    matrix = SparseMatrix(
        n_rows,
        n_cols,
        np.frombuffer(row_offsets, dtype=np.int64),
        np.frombuffer(col_indices, dtype=np.int64),
        np.frombuffer(values, dtype=np.float64),
    )
    return Dataset(matrix=matrix, labels=np.frombuffer(labels, dtype=np.float64), name=name)


def load_dataset(
    path: str | PathLike,
    n_features: int | None = None,
    normalize_labels: bool = True,
) -> Dataset:
    """Parse a LIBSVM file from disk; ".gz" paths are decompressed."""
    p = Path(path)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "rt") as handle:
        return parse_libsvm(
            handle,
            n_features=n_features,
            normalize_labels=normalize_labels,
            name=p.name.removesuffix(".gz"),
        )


def write_libsvm(dataset: Dataset, target: str | PathLike | IO[str]) -> None:
    """Serialize a Dataset in LIBSVM text format (1-based indices).

    Values are written with round-trip precision, so parsing the output
    reproduces the dataset exactly.
    """
    if hasattr(target, "write"):
        _write_lines(dataset, target)
        return
    p = Path(target)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "wt") as handle:
        _write_lines(dataset, handle)


def _write_lines(dataset: Dataset, handle: IO[str]) -> None:
    m = dataset.matrix
    offsets = m.row_offsets.tolist()
    cols = m.col_indices.tolist()
    values = m.values.tolist()
    for i in range(m.n_rows):
        parts = [f"{dataset.labels[i]:g}"]
        parts.extend(
            f"{cols[j] + 1}:{values[j]!r}" for j in range(offsets[i], offsets[i + 1])
        )
        handle.write(" ".join(parts) + "\n")


def scale_minus1_1(dataset: Dataset) -> Dataset:
    """Affine map of every column into [-1, 1]; constant columns map to 0.

    The map sends a stored zero to a generally nonzero value, so the result
    is dense in structure; the densified values are stored honestly.  Meant
    for desk-scale data.
    """
    dense = dataset.matrix.to_dense()
    col_min = dense.min(axis=0)
    col_max = dense.max(axis=0)
    span = col_max - col_min
    nonconstant = span > 0
    scaled = np.zeros_like(dense)
    scaled[:, nonconstant] = (
        2.0 * (dense[:, nonconstant] - col_min[nonconstant]) / span[nonconstant] - 1.0
    )
    return replace(dataset, matrix=SparseMatrix.from_dense(scaled), scaled=True)


def scale_max_abs(dataset: Dataset) -> Dataset:
    """Divide every column by its max absolute value (zeros preserved).

    Sparse-preserving alternative for experimentation; NOT the same map as
    ``scale_minus1_1`` and not what the reported experiments use.
    """
    m = dataset.matrix
    col_scale = np.zeros(m.n_cols)
    np.maximum.at(col_scale, m.col_indices, np.abs(m.values))
    col_scale[col_scale == 0.0] = 1.0
    values = m.values / col_scale[m.col_indices]
    matrix = SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, values)
    return replace(dataset, matrix=matrix, scaled=True)


def scale_pixels(dataset: Dataset, bits: int) -> Dataset:
    """Divide integer pixel values in [0, 2^bits - 1] by 2^bits.

    The sparsity pattern is preserved (0 -> 0) and all outputs lie in [0, 1).
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    m = dataset.matrix
    top = float(2**bits - 1)
    bad = np.flatnonzero((m.values != np.floor(m.values)) | (m.values < 0) | (m.values > top))
    if bad.size:
        j = bad[0]
        row = int(np.searchsorted(m.row_offsets, j, side="right") - 1)
        raise ValueError(
            f"value {m.values[j]} at row {row}, column {m.col_indices[j]} "
            f"is not an integer in [0, {int(top)}]"
        )
    matrix = SparseMatrix(
        m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values / float(2**bits)
    )
    return replace(dataset, matrix=matrix, scaled=True)


def relabel_binary_mnist(labels) -> np.ndarray:
    """Map digit labels 0-4 to -1 and 5-9 to +1, preserving order."""
    raw = np.asarray(labels, dtype=np.float64)
    if raw.ndim != 1:
        raise ValueError(f"expected a 1-d label array, got shape {raw.shape}")
    invalid = (raw != np.floor(raw)) | (raw < 0) | (raw > 9)
    if np.any(invalid):
        raise ValueError(f"label {float(raw[invalid][0])!r} is not a digit 0-9")
    return np.where(raw <= 4, -1.0, 1.0)
