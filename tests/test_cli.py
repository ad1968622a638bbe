"""CLI surface: flags, output formats, exit codes, schema conformance."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from farsa import Dataset, IstaConfig, IterationRecord, SolverConfig, SparseMatrix, write_libsvm
from farsa import cli
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

    @pytest.mark.parametrize("bad", ["1:nan", "1:1e400", "99999999999999999999:1"])
    def test_data_error_exits_one_naming_line(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.libsvm"
        path.write_text(f"+1 1:1\n-1 {bad}\n")
        code, out, err = run_cli(capsys, ["solve", "--data", str(path)])
        assert code == 1
        assert err.startswith("error: line 2: ")

    def test_file_without_features_exits_one(self, capsys, tmp_path):
        path = tmp_path / "labels_only.libsvm"
        path.write_text("1\n-1\n")
        code, out, err = run_cli(capsys, ["solve", "--data", str(path)])
        assert code == 1
        assert err == "error: no features in input\n"

    def test_ista_trace_rejected_before_loading(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(
            capsys,
            ["solve", "--data", "/no/such/file", "--solver", "ista", "--trace", str(trace_path)],
        )
        # exit 2, not the missing file's 1: the flags are refused first
        assert code == 2
        assert "--trace" in err and "--solver ista" in err
        assert out == ""
        assert not trace_path.exists()

    @pytest.mark.parametrize("bits", ["0", "54", "2000"])
    def test_pixel_bits_outside_1_to_53_rejected_before_loading(self, capsys, bits):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", "/no/such/file", "--scale", f"pixels:{bits}"])
        # exit 2, not the missing file's 1: the flag is refused first
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"'pixels:{bits}'" in captured.err and "bits in 1-53" in captured.err
        assert captured.out == ""

    def test_pixel_bits_53_accepted(self, capsys):
        # the flag passes, so the missing file is what fails
        code, out, err = run_cli(capsys, ["solve", "--data", "/no/such/file", "--scale", "pixels:53"])
        assert code == 1 and out == ""
        assert "/no/such/file" in err

    def test_trace_file_written(self, capsys, small_problem, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--trace", str(trace_path)],
        )
        assert code == 0
        with trace_path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows, "trace is empty"
        objectives = [float(r["objective"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert all(r["type"] in ("phi_sd", "phi_add", "beta") for r in rows)

    def test_trace_header_is_the_record_fields(self, capsys, small_problem, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            ["solve", "--data", small_problem, "--trace", str(trace_path)],
        )
        assert code == 0
        with trace_path.open(encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == [f.name for f in dataclasses.fields(IterationRecord)]

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

    @pytest.fixture
    def configs(self, monkeypatch):
        """The config of each solve the CLI runs, keyed by solver."""
        seen = {}

        def capture(name, real):
            def wrapper(*args):
                seen[name] = args[-1]
                return real(*args)

            return wrapper

        monkeypatch.setattr(cli, "solve", capture("farsa", cli.solve))
        monkeypatch.setattr(cli, "ista_solve", capture("ista", cli.ista_solve))
        return seen

    def test_unset_flags_keep_the_config_defaults(self, capsys, small_problem, configs):
        for solver in ("farsa", "ista"):
            code, out, _ = run_cli(
                capsys, ["solve", "--data", small_problem, "--solver", solver, "--output", "json"]
            )
            assert code == 0
            assert json.loads(out)["epsilon"] == configs[solver].epsilon
        assert configs["ista"] == IstaConfig()
        assert configs["farsa"] == SolverConfig(lam=1.0 / 40.0)

    def test_given_flags_reach_the_config(self, capsys, small_problem, configs):
        flags = ["--epsilon", "1e-3", "--max-iter", "7", "--time-limit", "5"]
        code, out, _ = run_cli(capsys, ["solve", "--data", small_problem, *flags])
        assert code == 0
        assert "epsilon        0.001" in out
        assert configs["farsa"] == SolverConfig(
            lam=1.0 / 40.0, epsilon=1e-3, max_iter=7, time_limit=5.0
        )
        run_cli(capsys, ["solve", "--data", small_problem, "--solver", "ista", *flags])
        assert configs["ista"] == IstaConfig(epsilon=1e-3, max_iter=7)

    def test_time_limit_inf_reaches_the_config(self, capsys, small_problem, configs):
        # inf is SolverConfig's "no limit", the one non-finite value a float flag takes
        code, _, _ = run_cli(capsys, ["solve", "--data", small_problem, "--time-limit", "inf"])
        assert code == 0
        assert configs["farsa"].time_limit == math.inf

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
        assert "'zap': not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, small_problem, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", small_problem, "--tolerances", f"1e-2,{value}"])
        assert exc.value.code == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err


# --time-limit takes inf (no limit): test_time_limit_inf_reaches_the_config
@pytest.mark.parametrize(
    "command, flag, name, value",
    [
        (command, flag, name, value)
        for command, flag, name in [
            ("solve", "--lambda", "lambda"),
            ("solve", "--time-limit", "time-limit"),
            ("solve", "--epsilon", "epsilon"),
            ("sweep", "--tolerances", "epsilon"),
        ]
        for value in ["abc", "0", "-1", "nan", "inf"]
        if (flag, value) != ("--time-limit", "inf")
    ],
)
def test_float_flag_rejects_value(capsys, small_problem, command, flag, name, value):
    given = f"1e-2,{value}" if flag == "--tolerances" else value
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", small_problem, flag, given])
    assert exc.value.code == 2
    if value == "abc":
        message = "'abc': not a number"
    elif flag == "--time-limit":
        message = f"{name} must be positive"
    else:
        message = f"{name} must be positive and finite"
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err


def test_module_runs_as_script(small_problem):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "farsa.cli", "solve", "--data", small_problem, "--output", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "optimal"
