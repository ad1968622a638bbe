"""CLI surface: flags, output formats, exit codes, schema conformance."""

import csv
import io
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from farsa import Dataset, SparseMatrix, write_libsvm
from farsa.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO_ROOT / "schemas" / "report.json").read_text())


@pytest.fixture(scope="module")
def small_problem(tmp_path_factory):
    rng = np.random.default_rng(60)
    m, n = 40, 8
    dense = np.where(rng.random((m, n)) < 0.7, rng.normal(size=(m, n)), 0.0)
    labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    ds = Dataset(matrix=SparseMatrix.from_dense(dense), labels=labels, name="small")
    path = tmp_path_factory.mktemp("data") / "small.libsvm"
    write_libsvm(ds, path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_json_output_validates_against_schema(self, capsys, small_problem):
        code, out, err = run_cli(
            capsys, ["solve", "--data", small_problem, "--output", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["status"] == "optimal"
        assert payload["solver"] == "farsa"
        assert payload["lambda"] == pytest.approx(1.0 / 40.0)

    def test_human_output_percent_zeros_one_decimal(self, capsys, small_problem):
        code, out, err = run_cli(capsys, ["solve", "--data", small_problem])
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("percent zeros"))
        value = line.split()[-1]
        assert "." in value and len(value.split(".")[1]) == 1

    def test_csv_output_single_row(self, capsys, small_problem):
        code, out, err = run_cli(
            capsys, ["solve", "--data", small_problem, "--output", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0][0] == "dataset"

    def test_ista_matches_farsa_objective(self, capsys, small_problem):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--output", "json"],
        )
        farsa_payload = json.loads(out)
        code, out, _ = run_cli(
            capsys,
            [
                "solve",
                "--data",
                small_problem,
                "--solver",
                "ista",
                "--max-iter",
                "200000",
                "--output",
                "json",
            ],
        )
        assert code == 0
        ista_payload = json.loads(out)
        jsonschema.validate(ista_payload, SCHEMA)
        assert ista_payload["objective"] == pytest.approx(
            farsa_payload["objective"], rel=1e-8
        )

    def test_explicit_lambda_flag(self, capsys, small_problem):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--lambda", "0.5", "--output", "json"],
        )
        assert code == 0
        assert json.loads(out)["lambda"] == 0.5

    def test_zero_epsilon_rejected(self, capsys, small_problem):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", small_problem, "--epsilon", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "epsilon must be positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--epsilon"])
    def test_non_finite_flag_rejected(self, capsys, small_problem, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", small_problem, flag, value])
        assert exc.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["solve", "--data", "/no/such/file"])
        assert code == 1
        assert "error" in err
        assert out == ""

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 2:1 1:3\n")
        code, out, err = run_cli(capsys, ["solve", "--data", str(bad)])
        assert code == 1
        assert "line 1" in err

    def test_trace_file_written(self, capsys, small_problem, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--trace", str(trace_path)],
        )
        assert code == 0
        rows = list(csv.DictReader(trace_path.open()))
        assert rows, "trace is empty"
        objectives = [float(r["objective"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert all(r["type"] in ("phi_sd", "phi_add", "beta") for r in rows)

    def test_repeat_reports_mean_time(self, capsys, small_problem):
        code, out, _ = run_cli(
            capsys,
            [
                "solve",
                "--data",
                small_problem,
                "--repeat",
                "3",
                "--output",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["repeats"] == 3
        assert payload["time_seconds"] > 0

    def test_minus1_1_scale_flag(self, capsys, small_problem):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--scale", "minus1-1",
             "--output", "json"],
        )
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_pixel_scale_flag_relabels_digits(self, capsys, tmp_path):
        rng = np.random.default_rng(61)
        path = tmp_path / "digits.libsvm"
        with path.open("w") as handle:
            for _ in range(30):
                digit = int(rng.integers(0, 10))
                pixels = rng.integers(0, 256, size=4)
                feats = " ".join(f"{j + 1}:{int(v)}" for j, v in enumerate(pixels))
                handle.write(f"{digit} {feats}\n")
        code, out, _ = run_cli(
            capsys,
            ["solve", "--data", str(path), "--scale", "pixels:8",
             "--output", "json"],
        )
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)


class TestSweepCommand:
    def test_default_sweep_emits_six_monotone_rows(self, capsys, small_problem):
        code, out, err = run_cli(capsys, ["sweep", "--data", small_problem])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        tols = [float(r["tolerance"]) for r in rows]
        assert tols == sorted(tols, reverse=True)
        iterations = [int(r["iterations"]) for r in rows]
        assert all(b >= a for a, b in zip(iterations, iterations[1:]))

    def test_stable_support_across_tight_tolerances(self, capsys, small_problem):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--data", small_problem, "--tolerances", "1e-4,1e-5,1e-6"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        zeros = {r["percent_zeros"] for r in rows}
        assert len(zeros) == 1

    def test_empty_tolerance_list_is_usage_error(self, capsys, small_problem):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", small_problem, "--tolerances", ""])
        assert exc.value.code == 2
        assert "empty tolerance list" in capsys.readouterr().err

    def test_bad_tolerance_is_usage_error(self, capsys, small_problem):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", small_problem, "--tolerances", "1e-2,zap"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, small_problem, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", small_problem, "--tolerances", f"1e-2,{value}"])
        assert exc.value.code == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err
