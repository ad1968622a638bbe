"""LIBSVM parsing, serialization round-trips, and the feature scalings."""

import gzip
import io
import tracemalloc
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from reference import parse_libsvm_scalar

from farsa import (
    Dataset,
    DatasetFormatError,
    IterationType,
    LogisticObjective,
    SolverConfig,
    SparseMatrix,
    load_dataset,
    parse_libsvm,
    relabel_binary_mnist,
    scale_minus1_1,
    scale_pixels,
    solve,
    write_libsvm,
)
from farsa import datasets, linalg
from farsa.linalg import DENSE_MAX_ENTRIES


def random_dataset(rng, m=None, n=None, empty_rows=True):
    m = m or int(rng.integers(1, 15))
    n = n or int(rng.integers(1, 12))
    dense = np.where(rng.random((m, n)) < 0.5, rng.normal(size=(m, n)), 0.0)
    if empty_rows and m > 2:
        dense[int(rng.integers(0, m))] = 0.0  # a sample with no features
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return Dataset(
        matrix=SparseMatrix.from_dense(dense), labels=labels, name="random"
    )


def pixel_dataset(rng, m, n):
    """Integer pixel values in [0, 255], about a third of them stored."""
    dense = np.where(rng.random((m, n)) < 0.3, rng.integers(0, 256, size=(m, n)), 0)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return Dataset(matrix=SparseMatrix.from_dense(dense.astype(float)), labels=labels)


def tall_pixel_dataset(rng):
    """A pixel dataset held sparse in column-major (CSC) form."""
    ds = pixel_dataset(rng, 300, 120)
    assert 300 * 120 > DENSE_MAX_ENTRIES and ds.matrix._matrix.format == "csc"
    return ds


# Whitespace that str.split() splits on but that ends no line in a text
# file or a StringIO, so line numbers agree across every source.
GAPS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1f", "\xa0", "\u3000"]
LABELS = ["+1", "1", "-1", "0", "1.0", "-1.0", "+0", "-0", "0.0"]
INDEX_FORMS = [str, "+{}".format, "0{}".format]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _value_text(rng):
    v = float(rng.normal())
    forms = [repr(v), f"{v:.4f}", f"{v:.3e}", f"{v:g}", str(int(v * 10))]
    return _pick(rng, forms + ["-0", ".5", "5.", "+1E-2", "1_0.5"])


def random_libsvm_lines(rng, min_chars=200_000, raw_labels=False):
    """Valid LIBSVM lines (no line ends) totalling more than ``min_chars`` characters."""
    lines, size = [], 0
    while size < min_chars:
        kind = rng.random()
        if kind < 0.04:
            line = ""
        elif kind < 0.08:
            line = _pick(rng, GAPS) * int(rng.integers(1, 4))
        else:
            if raw_labels:
                label = repr(float(np.round(rng.normal(scale=1e3), int(rng.integers(0, 8)))))
            else:
                label = _pick(rng, LABELS)
            nnz = int(rng.integers(0, 40)) if rng.random() < 0.9 else 0
            cols = np.sort(rng.choice(5000, size=nnz, replace=False)) + 1
            tokens = [label] + [f"{_pick(rng, INDEX_FORMS)(c)}:{_value_text(rng)}" for c in cols]
            gaps = [_pick(rng, GAPS) for _ in range(len(tokens) + 1)]
            if rng.random() < 0.7:
                gaps[0] = ""
            if rng.random() < 0.7:
                gaps[-1] = ""
            line = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
        lines.append(line)
        size += len(line) + 1
    return lines


def assert_same_parse(ds, ref):
    labels, offsets, cols, values, n_cols = ref
    assert ds.matrix.shape == (labels.size, n_cols)
    assert np.array_equal(ds.labels.view(np.int64), labels.view(np.int64))
    assert np.array_equal(ds.matrix.row_offsets, offsets)
    assert np.array_equal(ds.matrix.col_indices, cols)
    assert np.array_equal(ds.matrix.values.view(np.int64), values.view(np.int64))


@pytest.fixture(scope="module")
def long_prefix():
    return random_libsvm_lines(np.random.default_rng(57))


def _sources(lines, tmp_path, crlf, final_newline):
    """The same lines as a StringIO, a file, a .gz file and a list of lines."""
    end = "\r\n" if crlf else "\n"
    text = end.join(lines) + (end if final_newline else "")
    yield io.StringIO(text)
    for name, opener in [("plain.libsvm", open), ("packed.libsvm.gz", gzip.open)]:
        path = tmp_path / name
        with opener(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with opener(path, "rt", encoding="utf-8") as handle:
            yield handle
    yield list(lines)


class TestParse:
    def test_direct_transcription(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.5 3:2\n-1 2:1\n"))
        assert ds.n_samples == 2 and ds.n_features == 3
        assert_allclose(ds.matrix.to_dense(), [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_blank_lines_skipped(self):
        ds = parse_libsvm(io.StringIO("\n+1 1:1\n\n-1 1:2\n\n"))
        assert ds.n_samples == 2

    def test_zero_one_labels_normalized(self):
        ds = parse_libsvm(io.StringIO("1 1:1\n0 1:2\n"))
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetFormatError, match="no samples"):
            parse_libsvm(io.StringIO(""))

    def test_input_without_features_rejected(self):
        with pytest.raises(DatasetFormatError, match="no features"):
            parse_libsvm(io.StringIO("1\n-1\n"))
        with pytest.raises(DatasetFormatError, match="no features"):
            parse_libsvm(io.StringIO("1\n-1\n"), n_features=0)
        # trailing all-zero features still widen a file with no tokens
        assert parse_libsvm(io.StringIO("1\n-1\n"), n_features=3).matrix.shape == (2, 3)

    def test_malformed_token_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_libsvm(io.StringIO("+1 1:1\n-1 2:oops\n"))
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_libsvm(io.StringIO("+1 1=3\n"))
        with pytest.raises(DatasetFormatError, match="line 1.*label"):
            parse_libsvm(io.StringIO("yes 1:1\n"))

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(DatasetFormatError, match="strictly increasing"):
            parse_libsvm(io.StringIO("+1 2:1 2:2\n"))
        with pytest.raises(DatasetFormatError, match="strictly increasing"):
            parse_libsvm(io.StringIO("+1 3:1 2:2\n"))

    def test_unknown_label_rejected(self):
        with pytest.raises(DatasetFormatError, match="unknown label"):
            parse_libsvm(io.StringIO("3 1:1\n"))

    def test_zero_index_rejected(self):
        with pytest.raises(DatasetFormatError, match="1-based"):
            parse_libsvm(io.StringIO("+1 0:1\n"))

    def test_raw_labels_kept_on_request(self):
        ds = parse_libsvm(io.StringIO("7 1:1\n3 1:2\n"), normalize_labels=False)
        assert ds.labels.tolist() == [7.0, 3.0]

    def test_explicit_feature_count(self):
        ds = parse_libsvm(io.StringIO("+1 1:1\n"), n_features=10)
        assert ds.n_features == 10
        with pytest.raises(DatasetFormatError, match="smaller than"):
            parse_libsvm(io.StringIO("+1 5:1\n"), n_features=2)


class TestBlockParse:
    """The block parser against the token-by-token reference, on inputs of several blocks.

    The inputs are a few hundred KB, so the tests that need several blocks
    parse in 64 KB blocks (``small_blocks``) and say how many they make.
    """

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize(
        "seed, crlf, final_newline, raw_labels",
        [(58, False, True, False), (59, True, False, False), (60, True, True, True)],
    )
    def test_matches_scalar_reference(self, tmp_path, seed, crlf, final_newline, raw_labels):
        lines = random_libsvm_lines(np.random.default_rng(seed), raw_labels=raw_labels)
        assert len(list(datasets._blocks(lines))) > 1
        ref = parse_libsvm_scalar(lines, normalize_labels=not raw_labels)
        assert ref[0].size > 500 and ref[3].size > 5_000
        for source in _sources(lines, tmp_path, crlf, final_newline):
            assert_same_parse(parse_libsvm(source, normalize_labels=not raw_labels), ref)

    @pytest.mark.parametrize(
        "bad",
        [
            "-1 2:oops",
            "+1 1=3",
            "yes 1:1",
            "+1 2:1 2:2",
            "+1 3:1 2:2",
            "3 1:1",
            "nan 1:1",
            "+1 0:1",
            "+1 -7:1",
            "+1 1:2:3",
            "+1 1:",
            "+1 :5",
            "+1 1:2:3 4",
            "+1 1: 7 2:3",
            "+1 1.0:2",
            "+1 1e0:2",
            "+1:3 5",
            "1:2",
            "+1 4:1 7:nan",
            "+1 1:1e400",
            "+1 1:-inf",
            "+1 99999999999999999999:1",
            "+1 -99999999999999999999:1",
            "+1 -9223372036854775808:1",
            "+1 -4294967290:1",
            "-1 1:1 3:0.5 9:x 2:nan",
        ],
    )
    @pytest.mark.usefixtures("small_blocks")
    def test_error_table(self, long_prefix, bad):
        lines = long_prefix + [bad]
        assert len(list(datasets._blocks(lines))) > 1
        with pytest.raises(DatasetFormatError) as expected:
            parse_libsvm_scalar(lines)
        assert str(expected.value).startswith(f"line {len(lines)}: ")
        with pytest.raises(DatasetFormatError) as raised:
            parse_libsvm(io.StringIO("\n".join(lines)))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.usefixtures("small_blocks")
    def test_first_bad_line_reported(self, tmp_path, long_prefix):
        lines = long_prefix[:50] + ["+1 2:1 1:1", "+1 1:1", "yes 1:1"] + long_prefix
        with pytest.raises(DatasetFormatError, match="^line 51: feature indices not strictly"):
            parse_libsvm(lines)
        # after several blocks that hold blank and whitespace-only lines, each
        # ending in "\r\n", the line number counts every line before it
        assert "" in long_prefix and " " in long_prefix
        assert len(list(datasets._blocks(long_prefix))) > 1
        lines = long_prefix + ["", "\t", "+1 3:1 3:2"] + long_prefix[:100]
        with pytest.raises(DatasetFormatError) as expected:
            parse_libsvm_scalar(lines)
        assert str(expected.value).startswith(f"line {len(long_prefix) + 3}: feature indices")
        sources = _sources(lines, tmp_path, crlf=True, final_newline=True)
        for source in chain(sources, [[line + "\r\n" for line in lines]]):
            with pytest.raises(DatasetFormatError) as raised:
                parse_libsvm(source)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "big_index, dtype", [(2**31 + 1, np.int64), (2**31 - 1, np.int32)], ids=["widened", "fits"]
    )
    def test_index_dtype_across_blocks(self, big_index, dtype):
        # the first index beyond int32 (0-based) appears after the first block
        lines = ["+1 1:0.5 7:1.25"] * 20_000 + [f"-1 3:1 {big_index}:2.5", "+1 2:-1"]
        assert len(list(datasets._blocks(lines))) > 1
        ds = parse_libsvm(lines)
        assert ds.matrix.col_indices.dtype == dtype
        assert_same_parse(ds, parse_libsvm_scalar(lines))

    @pytest.mark.usefixtures("small_blocks")
    def test_one_csr_check_per_block(self, monkeypatch, long_prefix):
        n_blocks = len(list(datasets._blocks(long_prefix)))
        assert n_blocks > 1
        calls = {}
        for module in (datasets, linalg):
            check = module.check_csr

            def counted(*args, _check=check, _name=module.__name__):
                calls[_name] = calls.get(_name, 0) + 1
                return _check(*args)

            monkeypatch.setattr(module, "check_csr", counted)
        built = []
        csr_matrix = sp.csr_matrix

        def constructed(*args, **kwargs):
            built.append(kwargs["shape"])
            return csr_matrix(*args, **kwargs)

        monkeypatch.setattr(sp, "csr_matrix", constructed)
        ds = parse_libsvm(long_prefix)
        # the blocks' checks cover the whole matrix, which is not checked
        # again, and the sparse-held result is built into scipy once
        assert calls == {"farsa.datasets": n_blocks}
        assert ds.matrix.shape[0] * ds.matrix.shape[1] > DENSE_MAX_ENTRIES
        assert built == [ds.matrix.shape]
        # a dense-held result keeps the parsed arrays and builds no scipy matrix
        small = parse_libsvm(io.StringIO("+1 1:0.5 3:-1\n-1 2:2\n"))
        assert built == [ds.matrix.shape] and calls == {"farsa.datasets": n_blocks + 1}
        assert small.matrix._dense.tolist() == [[0.5, 0.0, -1.0], [0.0, 2.0, 0.0]]

    def test_short_lines_memory_bound(self, tmp_path):
        # tall-shaped: many short rows, so per-row costs show; the bound is
        # 32 bytes per stored entry plus 4 MB
        rng = np.random.default_rng(61)
        n_rows, per_row = 50_000, 8
        path = tmp_path / "tall.libsvm"
        # one index in each 250-wide band keeps a row's indices increasing
        cols = 250 * np.arange(per_row) + rng.integers(1, 251, size=(n_rows, per_row))
        values = rng.normal(size=cols.shape).tolist()
        path.write_text(
            "".join(
                "-1 " + " ".join(f"{c}:{v:.4f}" for c, v in zip(row_cols, row_values)) + "\n"
                for row_cols, row_values in zip(cols.tolist(), values)
            )
        )
        tracemalloc.start()
        ds = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert ds.matrix.nnz == n_rows * per_row
        assert peak <= 32 * ds.matrix.nnz + 4 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            ds = random_dataset(rng)
            buffer = io.StringIO()
            write_libsvm(ds, buffer)
            back = parse_libsvm(
                io.StringIO(buffer.getvalue()), n_features=ds.n_features
            )
            assert np.array_equal(back.labels, ds.labels)
            assert np.array_equal(back.matrix.row_offsets, ds.matrix.row_offsets)
            assert np.array_equal(back.matrix.col_indices, ds.matrix.col_indices)
            assert np.array_equal(back.matrix.values, ds.matrix.values)

    def test_single_feature_rows(self):
        ds = parse_libsvm(io.StringIO("+1 4:2.5\n-1 1:-3\n"))
        buffer = io.StringIO()
        write_libsvm(ds, buffer)
        back = parse_libsvm(io.StringIO(buffer.getvalue()))
        assert np.array_equal(back.matrix.values, ds.matrix.values)

    def test_raw_labels_round_trip(self):
        text = "1234567 1:1\n0.1234567 2:0.5\n-2.5e-300\n"
        ds = parse_libsvm(io.StringIO(text), normalize_labels=False)
        buffer = io.StringIO()
        write_libsvm(ds, buffer)
        back = parse_libsvm(io.StringIO(buffer.getvalue()), normalize_labels=False)
        assert back.labels.tolist() == [1234567.0, 0.1234567, -2.5e-300]

    def test_plus_minus_one_labels_written_as_integers(self):
        buffer = io.StringIO()
        write_libsvm(parse_libsvm(io.StringIO("+1 1:0.5\n-1 2:1\n0\n")), buffer)
        assert buffer.getvalue() == "1 1:0.5\n-1 2:1.0\n-1\n"

    def test_write_keeps_no_row_major_copy(self, tmp_path):
        # writing reads the CSR arrays of a CSC-held matrix; they are
        # converted for the write and not kept on the matrix
        ds = tall_pixel_dataset(np.random.default_rng(57))
        attributes = set(vars(ds.matrix))
        path = tmp_path / "tall.libsvm"
        write_libsvm(ds, path)
        assert set(vars(ds.matrix)) == attributes
        back = load_dataset(path, n_features=ds.n_features)
        assert np.array_equal(back.matrix.to_dense(), ds.matrix.to_dense())

    def test_write_converts_once(self, monkeypatch):
        ds = tall_pixel_dataset(np.random.default_rng(58))
        assert ds.matrix._matrix.format == "csc"
        conversions = []
        tocsr = sp.csc_matrix.tocsr

        def counted(matrix, *args, **kwargs):
            conversions.append(matrix.shape)
            return tocsr(matrix, *args, **kwargs)

        monkeypatch.setattr(sp.csc_matrix, "tocsr", counted)
        buffer = io.StringIO()
        write_libsvm(ds, buffer)
        assert conversions == [ds.matrix.shape]
        back = parse_libsvm(io.StringIO(buffer.getvalue()), n_features=ds.n_features)
        assert np.array_equal(back.matrix.to_dense(), ds.matrix.to_dense())

    def test_gzip_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        ds = random_dataset(rng, m=8, n=5)
        path = tmp_path / "data.libsvm.gz"
        write_libsvm(ds, path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline()  # really gzip-compressed text
        back = load_dataset(path, n_features=ds.n_features)
        assert back.name == "data.libsvm"
        assert np.array_equal(back.matrix.values, ds.matrix.values)
        assert np.array_equal(back.labels, ds.labels)

    def test_streaming_memory_proportional_to_nnz(self, tmp_path):
        # news20-shaped: huge feature count, modest nnz; dense storage
        # would need ~1.6 GB, streaming should stay within tens of MB
        rng = np.random.default_rng(52)
        path = tmp_path / "wide.libsvm"
        n_rows, n_cols, per_row = 200, 1_000_000, 1000
        with open(path, "w") as handle:
            for _ in range(n_rows):
                cols = np.sort(rng.choice(n_cols, size=per_row, replace=False)) + 1
                vals = rng.random(per_row)
                line = "+1 " + " ".join(
                    f"{c}:{v:.6f}" for c, v in zip(cols, vals)
                )
                handle.write(line + "\n")
        tracemalloc.start()
        ds = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert ds.matrix.nnz == n_rows * per_row
        assert ds.n_features == max(ds.matrix.col_indices) + 1
        assert peak < 64 * 1024 * 1024


class TestScaling:
    def test_minus1_1_endpoints_and_midpoint(self):
        ds = Dataset(
            matrix=SparseMatrix.from_dense([[0.0], [5.0], [10.0]]),
            labels=np.array([1.0, -1.0, 1.0]),
        )
        scaled = scale_minus1_1(ds)
        assert_allclose(scaled.matrix.to_dense().ravel(), [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(
            matrix=SparseMatrix.from_dense([[3.0, 1.0], [3.0, 2.0]]),
            labels=np.array([1.0, -1.0]),
        )
        scaled = scale_minus1_1(ds)
        assert np.all(scaled.matrix.to_dense()[:, 0] == 0.0)

    def test_scaled_columns_span_unit_interval(self):
        rng = np.random.default_rng(53)
        ds = random_dataset(rng, m=20, n=6, empty_rows=False)
        dense = scale_minus1_1(ds).matrix.to_dense()
        original = ds.matrix.to_dense()
        for j in range(6):
            if original[:, j].max() > original[:, j].min():
                assert dense[:, j].min() == -1.0
                assert dense[:, j].max() == 1.0

    def test_minus1_1_idempotent(self):
        rng = np.random.default_rng(54)
        ds = random_dataset(rng, m=15, n=5, empty_rows=False)
        once = scale_minus1_1(ds)
        twice = scale_minus1_1(once)
        assert_allclose(
            twice.matrix.to_dense(), once.matrix.to_dense(), atol=1e-15
        )


class TestPixels:
    def test_full_intensity(self):
        ds = Dataset(
            matrix=SparseMatrix.from_dense([[255.0, 0.0]]), labels=np.array([1.0])
        )
        scaled = scale_pixels(ds, 8)
        assert scaled.matrix.to_dense()[0, 0] == 255.0 / 256.0 == 0.99609375
        assert scaled.matrix.to_dense()[0, 1] == 0.0

    def test_sparsity_pattern_preserved_and_range(self):
        rng = np.random.default_rng(56)
        dense = np.where(
            rng.random((6, 7)) < 0.5, rng.integers(0, 256, size=(6, 7)), 0
        ).astype(float)
        ds = Dataset(
            matrix=SparseMatrix.from_dense(dense), labels=np.ones(6)
        )
        scaled = scale_pixels(ds, 8)
        assert scaled.matrix.nnz == ds.matrix.nnz
        out = scaled.matrix.to_dense()
        assert out.min() >= 0.0 and out.max() < 1.0

    def test_out_of_range_value_names_position(self):
        ds = Dataset(
            matrix=SparseMatrix.from_dense([[0.0, 300.0], [1.0, 2.0]]),
            labels=np.array([1.0, -1.0]),
        )
        with pytest.raises(ValueError, match="row 0, column 1"):
            scale_pixels(ds, 8)
        ds2 = Dataset(
            matrix=SparseMatrix.from_dense([[0.5]]), labels=np.array([1.0])
        )
        with pytest.raises(ValueError, match="not an integer"):
            scale_pixels(ds2, 8)

    def test_tall_scale_keeps_the_column_major_layout(self):
        ds = tall_pixel_dataset(np.random.default_rng(58))
        csr = sp.csr_matrix(ds.matrix.to_dense())
        attributes = set(vars(ds.matrix))
        scaled = scale_pixels(ds, 8).matrix
        # the input gains no row-major copy, and the result is held as the input is
        assert set(vars(ds.matrix)) == attributes
        assert scaled._matrix.format == "csc" and scaled._dense is None
        assert scaled.values.tobytes() == (csr.data / 256.0).tobytes()
        assert np.array_equal(scaled.col_indices, csr.indices)
        assert np.array_equal(scaled.row_offsets, csr.indptr)

    def test_tall_bad_value_named_in_row_major_order(self):
        ds = tall_pixel_dataset(np.random.default_rng(59))
        dense = ds.matrix.to_dense()
        # the first bad entry in column-major storage order is (5, 2); in
        # row-major order it is (0, 100)
        dense[0, 100], dense[5, 2] = 300.0, 0.5
        ds = Dataset(matrix=SparseMatrix.from_dense(dense), labels=ds.labels)
        attributes = set(vars(ds.matrix))
        with pytest.raises(ValueError) as error:
            scale_pixels(ds, 8)
        assert str(error.value) == "value 300.0 at row 0, column 100 is not an integer in [0, 255]"
        assert set(vars(ds.matrix)) == attributes

    def test_small_scale_stays_dense_held(self):
        # a small input keeps its dense hold, so solves on the scaled matrix
        # take Newton steps (no CG) on their phi iterations
        ds = pixel_dataset(np.random.default_rng(60), 40, 6)
        attributes = set(vars(ds.matrix))
        scaled = scale_pixels(ds, 8)
        assert set(vars(ds.matrix)) == attributes
        report = solve(
            LogisticObjective(scaled.matrix, scaled.labels), SolverConfig(lam=0.5)
        )
        assert scaled.matrix._dense is not None
        phi = [r for r in report.trace if r.type is not IterationType.BETA]
        assert phi and all(r.cg_iterations == 0 for r in phi)

    @pytest.mark.parametrize("bits", [0, 54, 1100])
    def test_bits_outside_1_to_53_rejected(self, bits):
        # from 54 bits on 2^bits - 1 is not a float64
        ds = Dataset(matrix=SparseMatrix.from_dense([[3.0]]), labels=np.array([1.0]))
        with pytest.raises(ValueError, match=f"^bits must be in 1-53, got {bits}$"):
            scale_pixels(ds, bits)

    def test_53_bits_keep_the_top_value_exact(self):
        top = float(2**53 - 1)
        ds = Dataset(matrix=SparseMatrix.from_dense([[top, 1.0]]), labels=np.array([1.0]))
        assert scale_pixels(ds, 53).matrix.values.tolist() == [top / 2**53, 2.0**-53]
        ds = Dataset(matrix=SparseMatrix.from_dense([[2.0**53]]), labels=np.array([1.0]))
        with pytest.raises(ValueError, match="not an integer in"):
            scale_pixels(ds, 53)


class TestRelabel:
    def test_low_digits_map_to_minus_one(self):
        assert relabel_binary_mnist([0.0, 4.0]).tolist() == [-1.0, -1.0]

    def test_high_digits_map_to_plus_one(self):
        assert relabel_binary_mnist([5.0, 9.0]).tolist() == [1.0, 1.0]

    def test_mixed_array_preserves_order(self):
        out = relabel_binary_mnist([3.0, 7.0, 0.0, 5.0, 4.0])
        assert out.tolist() == [-1.0, 1.0, -1.0, 1.0, -1.0]

    def test_non_digit_rejected(self):
        with pytest.raises(ValueError, match="digit"):
            relabel_binary_mnist([2.5])
        with pytest.raises(ValueError, match="digit"):
            relabel_binary_mnist([11.0])
