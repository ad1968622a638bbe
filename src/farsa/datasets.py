"""LIBSVM-format ingestion, label normalization, and feature scalings.

Parsing is block-wise: the input is cut into blocks of whole lines, about
64 KB of text each, and each block is converted and checked with
whole-array operations on its UTF-8 bytes, then appended to growable flat
arrays.  Byte comparisons find the tokens, the lines and the colons.  A
label, index or value written ``[+-]?digits[.digits]`` with at most 15
digits and dot is converted by integer arithmetic on its digit bytes: the
digits make an integer m < 10**15 < 2**53, an index is m (in int64), and
a label or value is m / 10**k for k digits after the dot.  Both m and
10**k are exact doubles and one division rounds correctly, so that is
bitwise what ``float()`` returns.  The other tokens of a block (an
exponent, ``nan``, ``1_0``, non-ASCII digits, more digits) are gathered
into one list per kind and converted by one ``np.array`` call, which reads
each as ``float()`` or ``int()`` does, so every token reads as Python
reads it.

Peak memory is proportional to the number of stored entries plus one
block, never to rows*columns, and ``.gz`` input is read as a stream.
Files are read and written as UTF-8.  Column indices in files are 1-based;
in memory everything is 0-based.
"""

from __future__ import annotations

import gzip
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
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
_COLON, _SPACE, _NEWLINE = ord(":"), ord(" "), ord("\n")
_PLUS, _MINUS, _DOT, _ZERO = ord("+"), ord("-"), ord("."), ord("0")
# Bytes other than the ASCII controls that str.split() does not split at
_NOT_CONTROL = bytes(range(9, 14)) + bytes(range(28, 127)) + bytes(range(128, 256))
# Fields of at most this many digits and dot convert by array arithmetic:
# their digits make an integer below 10**15 < 2**53
_WIDTH = 15
# Each field is read from the 16 bytes that end it (a power of two above
# _WIDTH), so a block's bytes follow that many spaces
_LEAD = 16
# 10**k, then -10**k: the divisors that turn the digits of a field with k
# of them after the dot, and its sign, into a float
_DIVISORS = np.concatenate((10.0 ** np.arange(_LEAD), -(10.0 ** np.arange(_LEAD))))
# Types that hold the values of groups of 2, 4, 8 and 16 digits
_GROUP_TYPES = (np.uint8, np.uint16, np.uint32, np.int64)
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


def _blocks(source: Iterable[str] | IO[str]) -> Iterator[str]:
    """Cut the input into texts of whole lines, each ending in ``"\\n"``.

    A file-like source is read ``_BLOCK_CHARS`` characters at a time and
    cut after the last ``"\\n"`` of what has been read, so a text is about
    one read long unless a single line is longer.  The lines of an iterable
    are grouped to at most ``_BLOCK_CHARS`` characters (a longer line is a
    group of its own) and joined with ``"\\n"``; a ``"\\n"`` inside a line,
    which ``str.split`` reads as whitespace, becomes a space, so each
    element stays one line.  Every text holds as many lines as ``"\\n"``s.
    """
    if hasattr(source, "read"):
        pending: list[str] = []  # the read text after the last line end
        while chunk := source.read(_BLOCK_CHARS):
            cut = chunk.rfind("\n") + 1
            if cut:
                yield "".join(pending) + chunk[:cut]
                pending = [chunk[cut:]]
            else:
                pending.append(chunk)
        if tail := "".join(pending):
            yield tail + "\n"
        return
    block: list[str] = []
    size = 0
    for line in source:
        if block and size + len(line) > _BLOCK_CHARS:
            yield _joined(block)
            block, size = [], 0
        block.append(line)
        size += len(line)
    if block:
        yield _joined(block)


def _joined(lines: list[str]) -> str:
    """Lines as one text, each ending in its own ``"\\n"``."""
    return "\n".join([line.replace("\n", " ") for line in lines]) + "\n"


def _parse_block(text: str, normalize_labels: bool) -> tuple[np.ndarray, ...] | None:
    """Parse whole lines, each ending in ``"\\n"``, with array operations on their bytes.

    Returns ``(labels, offsets, cols, values)`` with 0-based int64 ``cols``,
    or None if any line is malformed; blank lines contribute no row.
    Labels and values convert as ``float()`` does and indices as ``int()``
    does, so ``1.0:2`` is rejected.  The index, order and finiteness checks
    are borrowed from ``check_csr``, the matrix's definition of valid.
    """
    data = text.encode("utf-8", "surrogatepass")
    if not data.isascii():
        # leave " " as the only gap between tokens, as str.split() finds
        # them (it also splits at non-ASCII whitespace such as "\xa0")
        text = "".join(" ".join(line.split()) + "\n" for line in text.split("\n")[:-1])
        data = text.encode("utf-8", "surrogatepass")
    if data.translate(None, _NOT_CONTROL):
        return None  # a control byte: the token that holds it does not convert
    # the bytes up to " " are now str.split()'s separators; the spaces in
    # front let every field read the _LEAD bytes that end it
    padded = np.frombuffer(b" " * _LEAD + data, dtype=np.uint8)
    block = padded[_LEAD:]
    # tokens are the runs of bytes above " "; with the lead space before the
    # block and its final "\n", runs start at even and end at odd changes
    word = padded[_LEAD - 1 :] > _SPACE
    edges = np.flatnonzero(word[1:] != word[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # the first token of each line is its label
    first = np.zeros(starts.size + 1, dtype=bool)
    first[0] = True
    first[np.searchsorted(starts, np.flatnonzero(block == _NEWLINE))] = True
    first = first[:-1]
    label_at = np.flatnonzero(first)
    feature_starts, feature_ends = starts[~first], ends[~first]
    # colon i must fall in feature token i: one colon in each, none in labels
    colons = np.flatnonzero(block == _COLON)
    if colons.size != feature_starts.size or not (
        np.all(feature_starts <= colons) and np.all(colons < feature_ends)
    ):
        return None
    rows = label_at.size
    numbers = _Fields(
        text if len(text) == len(data) else None,
        data,
        padded,
        np.concatenate((starts[label_at], feature_starts, colons + 1)),
        np.concatenate((ends[label_at], colons, feature_ends)),
    )
    labels = numbers.floats(0, rows)
    cols = numbers.ints(rows, rows + colons.size)
    values = numbers.floats(rows + colons.size, rows + 2 * colons.size)
    if labels is None or cols is None or values is None:
        return None
    if normalize_labels:
        # "+1"/"1" -> +1; "-1"/"0" -> -1 (0/1-labeled files)
        if not np.all((labels == 1.0) | (labels == -1.0) | (labels == 0.0)):
            return None
        labels = np.where(labels == 1.0, 1.0, -1.0)
    offsets = np.append(label_at, starts.size) - np.arange(rows + 1)
    # the width is taken before the shift to 0-based, in which the index
    # -2**63 wraps to 2**63 - 1 and so lands out of range
    width = int(cols.max()) if cols.size else 0
    cols -= 1
    try:
        check_csr(rows, width, offsets, cols, values)
    except ValueError:
        return None
    return labels, offsets, cols, values


class _Fields:
    """Fields ``data[starts[i]:ends[i]]`` of a block, converted by array arithmetic.

    A field that is an optional sign, then ASCII digits with at most one
    dot among them, at least one digit and at most ``_WIDTH`` digits and
    dot, is read from its bytes: a Horner pass over the byte columns of
    all such fields at once makes the integer m of its digits (the dot
    multiplies by 1 rather than by 10), and the field is ``m / 10**k`` for
    k digits after the dot.  Both m < 10**15 < 2**53 and 10**k are exact
    doubles, so their correctly rounded quotient is what ``float()``
    returns (Clinger's fast path), and m is what ``int()`` returns for a
    field without a dot.  Every other field (exponents,
    ``nan``, ``inf``, ``1_0``, non-ASCII digits, longer fields, malformed
    text) is gathered with the others of its kind and converted by one
    ``np.array`` call, which reads each as ``float()`` or ``int()`` does.
    """

    def __init__(
        self,
        text: str | None,
        data: bytes,
        padded: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ):
        # text is the block's text when it is ASCII, so that a byte offset
        # is a character offset; otherwise None
        self.text, self.data, self.starts, self.ends = text, data, starts, ends
        sign = padded[starts + _LEAD]
        self.negative = sign == _MINUS
        length = ends - starts - (self.negative | (sign == _PLUS))
        # the bytes that end each field, in a power-of-two number of rows
        # that holds the longest field of at most _WIDTH (a longer one
        # takes the fallback, so its window may cut it): row r holds, for
        # every field, the byte `back[r]` bytes before its end, and bytes
        # before the field (its sign, say) read as the digit 0
        longest = int(length.max(initial=1, where=length <= _WIDTH))
        width = 1 << (longest - 1).bit_length()
        back = np.arange(width, 0, -1, dtype=np.uint8)[:, None]
        n_words = -(-width // 8)
        # the 8 bytes from each offset of the block, gathered a word at a time
        eights = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
        window = np.empty((starts.size, n_words), dtype="<u8")
        for j in range(n_words):
            window[:, j] = eights[ends + _LEAD - 8 * (n_words - j)]
        digits = window.view(np.uint8)[:, 8 * n_words - width :].T.copy()
        digits -= np.uint8(_ZERO)
        digits *= back <= np.minimum(length, _LEAD).astype(np.uint8)
        dot = (digits == np.uint8((_DOT - _ZERO) % 256)).view(np.uint8)
        other = digits > 9
        dots = dot.sum(axis=0, dtype=np.uint8)
        self.dotted = dots > 0
        self.fraction = (dot * (back - np.uint8(1))).sum(axis=0, dtype=np.uint8)
        self.fast = (
            ~np.logical_or.reduce(other != dot, axis=0)
            & (dots <= 1)
            & (length > dots)
            & (length <= _WIDTH)
        )
        self.fraction *= self.fast  # a field that is not fast takes the fallback
        self.divisor = self.fraction + np.uint8(_LEAD) * self.negative
        digits *= ~other
        # Horner's rule on pairs of rows, then pairs of pairs: a group's
        # value is the left value times the right scale plus the right
        # value, with scale 10 per digit and 1 for the dot
        value, scale = digits, np.uint8(10) - np.uint8(9) * dot
        for kind in _GROUP_TYPES[: width.bit_length() - 1]:
            value = value[0::2].astype(kind, copy=False) * scale[1::2] + value[1::2]
            scale = scale[0::2].astype(kind, copy=False) * scale[1::2]
        self.mantissa = value[0].astype(np.int64)

    def floats(self, lo: int, hi: int) -> np.ndarray | None:
        """Fields ``lo:hi`` as ``float()`` reads them; None if one does not convert."""
        part = slice(lo, hi)
        out = self.mantissa[part] / _DIVISORS.take(self.divisor[part])
        return self._fill(out, self.fast[part], lo, np.float64)

    def ints(self, lo: int, hi: int) -> np.ndarray | None:
        """Fields ``lo:hi`` as ``int()`` reads them, in int64; None if one does not convert."""
        part = slice(lo, hi)
        out = self.mantissa[part]  # each field is read once, so a view will do
        np.negative(out, out=out, where=self.negative[part])
        return self._fill(out, self.fast[part] & ~self.dotted[part], lo, np.int64)

    def _fill(self, out: np.ndarray, fast: np.ndarray, lo: int, dtype: type):
        """Convert the fields of ``out`` that are not ``fast``, all in one call."""
        slow = np.flatnonzero(~fast)
        if not slow.size:
            return out
        bounds = zip(self.starts[lo + slow].tolist(), self.ends[lo + slow].tolist())
        text, data = self.text, self.data
        if text is not None:
            tokens = [text[start:end] for start, end in bounds]
        else:
            tokens = [data[start:end].decode("utf-8", "surrogatepass") for start, end in bounds]
        numbers = _convert_tokens(tokens, dtype)
        if numbers is None:
            return None
        out[slow] = numbers
        return out


def _convert_tokens(tokens: list[str], dtype: type) -> np.ndarray | None:
    """Tokens as ``float()`` or ``int()`` reads them, in float64 or int64.

    None when one does not convert, or an index is beyond int64.
    """
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        return None


def _block_error(text: str, first_line_no: int, normalize_labels: bool) -> DatasetFormatError:
    """The error for the first malformed line of a block that failed to parse.

    Every check is per line, so a prefix of the block fails exactly when it
    holds a malformed line, and a prefix of that line's tokens fails exactly
    when it holds the first bad token.
    """

    def fails(lines: list[str]) -> bool:
        return _parse_block("".join(line + "\n" for line in lines), normalize_labels) is None

    lines = text.split("\n")[:-1]
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

    ``source`` is a text handle, whose lines end at ``"\\n"`` (a handle
    opened in the default newline mode translates ``"\\r\\n"`` and ``"\\r"``
    to it), or an iterable of lines, each of them one line.  Indices must
    be 1-based and strictly increasing within a line; blank lines are
    skipped.  The column count is the largest index seen unless
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
        line_no += block.count("\n")
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
    """Parse a UTF-8 LIBSVM file from disk; ".gz" paths are decompressed."""
    p = Path(path)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "rt", encoding="utf-8") as handle:
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
    dataset exactly.  A path is written as UTF-8.
    """
    if hasattr(target, "write"):
        _write_lines(dataset, target)
        return
    p = Path(target)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "wt", encoding="utf-8") as handle:
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
