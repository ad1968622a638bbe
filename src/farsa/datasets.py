"""LIBSVM-format ingestion, label normalization, and feature scalings.

Parsing is block-wise: lines are gathered into blocks of about 64 KB of
text, and each block is split, converted and checked with whole-array
operations, then appended to growable flat arrays.  Peak memory is
proportional to the number of stored entries plus one block, never to
rows*columns, and ``.gz`` input is read as a stream.  Column indices in
files are 1-based; in memory everything is 0-based.
"""

from __future__ import annotations

import gzip
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from os import PathLike
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .linalg import SparseMatrix, check_csr

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "parse_libsvm",
    "load_dataset",
    "write_libsvm",
    "scale_minus1_1",
    "scale_pixels",
    "relabel_binary_mnist",
]

# Characters of text parsed per block: large enough that per-block overhead
# is small, small enough that a block's tokens stay a few hundred KB.
_BLOCK_CHARS = 1 << 16
_COLON, _SPACE = ord(":"), ord(" ")
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line number."""


@dataclass(frozen=True)
class Dataset:
    """A design matrix with +-1 labels (one per row)."""

    matrix: SparseMatrix
    labels: np.ndarray
    name: str = ""

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


def _blocks(source: Iterable[str]) -> Iterator[list[str]]:
    """Group lines into lists of at most ``_BLOCK_CHARS`` characters.

    A line longer than that is a list of its own.
    """
    block: list[str] = []
    size = 0
    for line in source:
        if block and size + len(line) > _BLOCK_CHARS:
            yield block
            block, size = [], 0
        block.append(line)
        size += len(line)
    if block:
        yield block


def _one_colon_each(features: str) -> bool:
    """Whether every space-separated token of ``features`` holds exactly one colon.

    With as many colons as tokens, that holds when colon ``i`` falls
    between spaces ``i-1`` and ``i``.  In UTF-8 the bytes of " " and ":"
    occur only as those characters.
    """
    text = np.frombuffer(features.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    colons = np.flatnonzero(text == _COLON)
    spaces = np.flatnonzero(text == _SPACE)
    return bool(
        colons.size == spaces.size + 1
        and np.all(colons[:-1] < spaces)
        and np.all(spaces < colons[1:])
    )


def _parse_block(lines: list[str], normalize_labels: bool) -> tuple[np.ndarray, ...] | None:
    """Parse a list of lines with whole-array conversions and checks.

    Returns ``(labels, offsets, cols, values)`` with 0-based int64 ``cols``,
    or None if any line is malformed; blank lines contribute no row.
    Labels and values convert as ``float()`` does and indices as ``int()``
    does, so ``1.0:2`` is rejected.  The index, order and finiteness checks
    are borrowed from ``check_csr``, the matrix's definition of valid.
    """
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    features = " ".join(chain.from_iterable([tokens[1:] for tokens in rows]))
    if features and not _one_colon_each(features):
        return None
    # "<idx> <val>" pairs; an empty side stays an empty string, which fails
    # to convert
    parts = features.replace(":", " ").split(" ") if features else []
    try:
        labels = np.array([tokens[0] for tokens in rows], dtype=np.float64)
        cols = np.array(parts[0::2], dtype=np.int64)
        values = np.array(parts[1::2], dtype=np.float64)
    except (ValueError, OverflowError):  # OverflowError: an index beyond int64
        return None
    if normalize_labels:
        # "+1"/"1" -> +1; "-1"/"0" -> -1 (0/1-labeled files)
        if not np.all((labels == 1.0) | (labels == -1.0) | (labels == 0.0)):
            return None
        labels = np.where(labels == 1.0, 1.0, -1.0)
    row_nnz = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) - 1
    offsets = np.concatenate(([0], np.cumsum(row_nnz)))
    # the width is taken before the shift to 0-based, in which the index
    # -2**63 wraps to 2**63 - 1 and so lands out of range
    width = int(cols.max()) if cols.size else 0
    cols -= 1
    try:
        check_csr(len(rows), width, offsets, cols, values)
    except ValueError:
        return None
    return labels, offsets, cols, values


def _block_error(
    lines: list[str], first_line_no: int, normalize_labels: bool
) -> DatasetFormatError:
    """The error for the first malformed line of a block that failed to parse.

    Every check is per line, so a prefix of the block fails exactly when it
    holds a malformed line, and a prefix of that line's tokens fails exactly
    when it holds the first bad token.
    """

    def fails(block: list[str]) -> bool:
        return _parse_block(block, normalize_labels) is None

    k = 1 + bisect_left(range(1, len(lines) + 1), True, key=lambda k: fails(lines[:k]))
    tokens = lines[k - 1].split()
    j = 1 + bisect_left(
        range(1, len(tokens) + 1), True, key=lambda j: fails([" ".join(tokens[:j])])
    )
    return DatasetFormatError(f"line {first_line_no + k - 1}: {_token_error(tokens, j - 1)}")


def _token_error(tokens: list[str], j: int) -> str:
    """What is wrong with ``tokens[j]``, the first bad token of its line."""
    token = tokens[j]
    if j == 0:
        try:
            raw = float(token)
        except ValueError:
            return f"malformed label token {token!r}"
        return f"unknown label {raw!r} (expected +1, 1, -1, or 0)"
    idx_text, _, val_text = token.partition(":")
    try:
        col = int(idx_text)
        float(val_text)
    except ValueError:
        return f"malformed feature token {token!r}"
    if col < 1:
        return f"feature index {col} is not 1-based"
    if col > _INT64_MAX:
        return f"feature index {col} is too large"
    if j > 1 and col <= int(tokens[j - 1].partition(":")[0]):
        return f"feature indices not strictly increasing at {token!r}"
    return f"non-finite feature value in {token!r}"


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

    Raises ``DatasetFormatError``, naming the first offending line, for a
    label or feature token that does not parse, a label other than +1, 1,
    -1 or 0 (when normalizing), an index below 1 or beyond 64 bits, indices
    not strictly increasing, and a value that is not finite (``nan``,
    ``inf``, or one that overflows such as ``1e400``).  It also raises for
    input without samples, for a matrix without columns, and for
    ``n_features`` below the largest index.
    """
    labels = array("d")
    values = array("d")
    col_indices = array("i")  # int32 while every index fits
    row_offsets = array("q", [0])
    max_col = -1
    line_no = 1

    for block in _blocks(source):
        parsed = _parse_block(block, normalize_labels)
        if parsed is None:
            raise _block_error(block, line_no, normalize_labels)
        line_no += len(block)
        block_labels, offsets, cols, block_values = parsed
        labels.frombytes(block_labels.tobytes())
        values.frombytes(block_values.tobytes())
        row_offsets.frombytes((offsets[1:] + row_offsets[-1]).tobytes())
        if cols.size:
            max_col = max(max_col, int(cols.max()))
            if col_indices.typecode == "i" and max_col > _INT32_MAX:
                widened = np.frombuffer(col_indices, dtype=np.int32).astype(np.int64)
                col_indices = array("q", widened.tobytes())
            col_indices.frombytes(cols.astype(col_indices.typecode).tobytes())

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
    if n_cols == 0:
        raise DatasetFormatError("no features in input")

    # every block passed check_csr, so their concatenation is valid unchecked
    offsets, cols, values = (
        np.frombuffer(a, dtype=a.typecode) for a in (row_offsets, col_indices, values)
    )
    matrix = SparseMatrix._checked((n_rows, n_cols), offsets, cols, values)
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

    Labels and values are written in their shortest round-trip form (an
    integral label without its ".0"), so parsing the output reproduces the
    dataset exactly.
    """
    if hasattr(target, "write"):
        _write_lines(dataset, target)
        return
    p = Path(target)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "wt") as handle:
        _write_lines(dataset, handle)


def _write_lines(dataset: Dataset, handle: IO[str]) -> None:
    # one conversion of a CSC-held matrix serves all three arrays; reading
    # row_offsets, col_indices and values would convert it three times
    offsets, cols, values = (a.tolist() for a in dataset.matrix._row_major())
    labels = dataset.labels.tolist()
    for i in range(dataset.matrix.n_rows):
        parts = [repr(labels[i]).removesuffix(".0")]
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
    return replace(dataset, matrix=SparseMatrix.from_dense(scaled))


def scale_pixels(dataset: Dataset, bits: int) -> Dataset:
    """Divide integer pixel values in [0, 2^bits - 1] by 2^bits, for bits in 1-53.

    The sparsity pattern is preserved (0 -> 0) and all outputs lie in [0, 1).
    Above 53 bits 2^bits - 1 is not a float64, so the range check would be
    inexact.  The scaled matrix keeps the input's layout and shares its
    index arrays: the values are checked and divided as held, and a finite
    value divided by 2^bits stays finite, so it is not checked again.  A
    value that is not an integer in range raises ``ValueError`` naming the
    first such entry in row-major order.
    """
    if not 1 <= bits <= 53:
        raise ValueError(f"bits must be in 1-53, got {bits}")
    matrix = dataset.matrix
    top = float(2**bits - 1)

    def bad(values: np.ndarray) -> np.ndarray:
        return (values != np.floor(values)) | (values < 0) | (values > top)

    held = matrix._held_values
    if np.any(bad(held)):
        offsets, cols, values = matrix._row_major()
        j = np.flatnonzero(bad(values))[0]
        row = int(np.searchsorted(offsets, j, side="right") - 1)
        raise ValueError(
            f"value {values[j]} at row {row}, column {cols[j]} "
            f"is not an integer in [0, {int(top)}]"
        )
    return replace(dataset, matrix=matrix._with_values(held / float(2**bits)))


def relabel_binary_mnist(labels) -> np.ndarray:
    """Map digit labels 0-4 to -1 and 5-9 to +1, preserving order."""
    raw = np.asarray(labels, dtype=np.float64)
    if raw.ndim != 1:
        raise ValueError(f"expected a 1-d label array, got shape {raw.shape}")
    invalid = (raw != np.floor(raw)) | (raw < 0) | (raw > 9)
    if np.any(invalid):
        raise ValueError(f"label {float(raw[invalid][0])!r} is not a digit 0-9")
    return np.where(raw <= 4, -1.0, 1.0)
