"""LIBSVM number conversion on a block's bytes, against float() and int() token by token."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import parse_libsvm_scalar

import farsa
from farsa import DatasetFormatError, datasets, load_dataset, parse_libsvm

# Tokens at the edges of the array conversion: where a field stops fitting
# its window, where a mantissa passes 2**53, where an index passes int32 or
# int64, and the forms only float() or int() reads.
BOUNDARY_TOKENS = [
    # 15, 16 and 17 significant digits, with and without a dot
    "123456789012345",
    "1234567890123456",
    "12345678901234567",
    "1234567.1234567",
    "1234567.12345678",
    "0.12345678901234",
    "0.123456789012345",
    "1.2345678901234567",
    "999999999999999",
    "99999999999999.9",
    # 2**53 - 1, 2**53 and 2**53 + 1
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    # 22 and 23 fraction digits
    "0." + "1" * 22,
    "0." + "1" * 23,
    "0." + "0" * 21 + "1",
    "0." + "0" * 22 + "1",
    # signs, zeros and dots
    "-0",
    "+0.0",
    "-0.0",
    ".5",
    "5.",
    "-.5",
    "+5.",
    "00012",
    "-00012",
    "0000000000000001",
    ".",
    "-",
    "+",
    "-.",
    "1..2",
    "1.2.3",
    "+-1",
    "--1",
    "1-2",
    # forms that only float() or int() reads, or neither
    "1e5",
    "1E-5",
    "1_0",
    "1_0.5",
    "nan",
    "-inf",
    "1e400",
    "0x10",
    "٣",
    "١.٥",
    # indices of 19 and 20 digits, and 2**31 - 1, 2**31, 2**31 + 1
    "1234567890123456789",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "12345678901234567890",
    "2147483647",
    "2147483648",
    "2147483649",
]

ROLES = {"value": "+1 1:{}", "index": "+1 {}:1", "label": "{} 1:1"}


def as_lists(labels, offsets, cols, values, n_cols):
    """Parsed arrays as bitwise-comparable lists."""
    return (
        labels.view(np.int64).tolist(),
        np.asarray(offsets).tolist(),
        np.asarray(cols).tolist(),
        values.view(np.int64).tolist(),
        n_cols,
    )


def dataset_lists(ds):
    m = ds.matrix
    return as_lists(ds.labels, m.row_offsets, m.col_indices, m.values, m.n_cols)


def outcome(parse, lines, normalize_labels):
    """A parse's arrays as lists, or its error message."""
    try:
        result = parse(lines, normalize_labels=normalize_labels)
    except DatasetFormatError as error:
        return str(error)
    return dataset_lists(result) if isinstance(result, farsa.Dataset) else as_lists(*result)


def bench_style_lines(rng, n_rows, n_cols, value_text):
    """Lines as the benchmark writes them: integral labels, values from ``value_text``."""
    lines = []
    for _ in range(n_rows):
        cols = np.sort(rng.choice(n_cols, size=int(rng.integers(0, 30)), replace=False)) + 1
        values = np.round(rng.normal(size=cols.size), 4).tolist()
        features = " ".join(f"{c}:{value_text(v)}" for c, v in zip(cols.tolist(), values))
        lines.append(f"{int(rng.choice([-1, 1])):d} {features}")
    return lines


@pytest.fixture
def fallback_calls(monkeypatch):
    """Token lists handed to the ``float()``/``int()`` fallback, one per call."""
    calls = []
    convert = datasets._convert_tokens

    def counted(tokens, dtype):
        calls.append(list(tokens))
        return convert(tokens, dtype)

    monkeypatch.setattr(datasets, "_convert_tokens", counted)
    return calls


class TestBoundaryTokens:
    @pytest.mark.parametrize("role", list(ROLES))
    @pytest.mark.parametrize("token", BOUNDARY_TOKENS)
    def test_matches_scalar_reference(self, token, role):
        lines = ["-1 2:0.5", ROLES[role].format(token), "+1 3:-1.25 4:7"]
        for normalize_labels in (True, False):
            expected = outcome(parse_libsvm_scalar, lines, normalize_labels)
            assert outcome(parse_libsvm, lines, normalize_labels) == expected

    def test_table_covers_both_paths(self, fallback_calls):
        # each token that is not of the plain decimal form, or that has
        # more than 15 digits and dot, reaches the float() fallback
        values = [t for t in BOUNDARY_TOKENS if t not in ("-", "+", ".", "-.")]
        parse_libsvm([f"+1 {i + 1}:{t}" for i, t in enumerate(values) if _is_finite(t)])
        slow = {token for call in fallback_calls for token in call}
        assert "1234567.1234567" not in slow and "-00012" not in slow
        assert {"1234567.12345678", "9007199254740993", "1e5", "1_0"} <= slow


def _is_finite(token):
    try:
        return np.isfinite(float(token))
    except ValueError:
        return False


class TestFastPath:
    def test_bench_style_file_converts_without_fallback(self, tmp_path, fallback_calls):
        rng = np.random.default_rng(70)
        lines = bench_style_lines(rng, 3_000, 2_000, repr)
        path = tmp_path / "bench.svm"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert path.stat().st_size > 2 * datasets._BLOCK_CHARS
        ds = load_dataset(path)
        assert fallback_calls == []
        assert dataset_lists(ds) == outcome(parse_libsvm_scalar, lines, True)

    def test_exponent_values_fall_back_and_match(self, fallback_calls):
        rng = np.random.default_rng(71)
        lines = bench_style_lines(rng, 1_000, 500, lambda v: f"{v:.3e}")
        expected = outcome(parse_libsvm_scalar, lines, True)
        assert outcome(parse_libsvm, lines, True) == expected
        n_values = len(expected[3])
        assert n_values > 5_000 and sum(map(len, fallback_calls)) == n_values
        # one call per block converts all of its values
        n_blocks = len(list(datasets._blocks(lines)))
        assert n_blocks > 1 and len(fallback_calls) == n_blocks


class TestLineSources:
    def test_newline_inside_an_element_is_whitespace(self):
        # one element is one line, as str.split() reads it
        lines = ["+1 1:1\n-1 2:1", "-1 3:1"]
        expected = outcome(parse_libsvm_scalar, lines, True)
        assert expected == "line 1: malformed feature token '-1'"
        assert outcome(parse_libsvm, lines, True) == expected

    def test_elements_with_line_ends_keep_their_numbers(self):
        lines = ["+1 1:1\n", "\n", "-1 2:1\r\n", "-1 3:x\n"]
        expected = outcome(parse_libsvm_scalar, lines, True)
        assert expected == "line 4: malformed feature token '3:x'"
        assert outcome(parse_libsvm, lines, True) == expected
        assert outcome(parse_libsvm, lines[:3], True) == outcome(
            parse_libsvm_scalar, lines[:3], True
        )

    @pytest.mark.parametrize("control", ["\x00", "\x08", "\x0e", "\x1b", "\x7f"])
    def test_control_byte_is_malformed(self, control):
        lines = ["+1 1:1", f"-1 2:{control}1", "+1 1:2"]
        expected = outcome(parse_libsvm_scalar, lines, True)
        assert expected.startswith("line 2: malformed feature token")
        assert outcome(parse_libsvm, lines, True) == expected


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # with the locale encoding's warning raised as an error, loading a file
    # with a no-break-space gap, writing it back and tracing a solve all pass
    script = """
import sys
from pathlib import Path
import numpy as np
from farsa import load_dataset, write_libsvm
from farsa.cli import main

source, copy, packed, trace = map(Path, sys.argv[1:])
source.write_text("+1 1:0.5\\xa02:-1\\n-1 2:2.25\\u30003:1\\n+1 3:-0.75\\n", encoding="utf-8")
ds = load_dataset(source)
assert ds.matrix.to_dense().tolist() == [[0.5, -1.0, 0.0], [0.0, 2.25, 1.0], [0.0, 0.0, -0.75]]
for target in (copy, packed):
    write_libsvm(ds, target)
    back = load_dataset(target)
    assert np.array_equal(back.matrix.to_dense(), ds.matrix.to_dense())
    assert np.array_equal(back.labels, ds.labels)
assert main(["solve", "--data", str(source), "--trace", str(trace)]) == 0
assert trace.read_text(encoding="utf-8").startswith("k,type,")
"""
    paths = [tmp_path / name for name in ("gap.svm", "copy.svm", "copy.svm.gz", "trace.csv")]
    src = Path(farsa.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        + ["-c", script, *map(str, paths)],
        env={
            **{k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONWARNINGS")},
            "PYTHONPATH": str(src),
        },
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert result.returncode == 0, result.stderr
