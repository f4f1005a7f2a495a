import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import cli

SQRT2 = math.sqrt(2.0)
SQRT8 = 2.0 * SQRT2

MAXV = ["--alpha1", str(math.pi / 4), "--alpha2", "0",
        "--beta1", str(math.pi / 8), "--beta2", str(3 * math.pi / 8)]

ZERO_T0 = ["--alpha1", str(math.pi / 4), "--alpha2", "0", "--beta1", str(math.pi / 4), "--beta2", "0"]
# |E| exceeds t0 ~ 1e-13 here by rounding alone
NEAR_ZERO_T0 = ["--alpha1=0.7853981633975285", "--alpha2=-2.2552826080050498e-13",
                "--beta1=0.7853981633975614", "--beta2=-1.97633124032897e-13"]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def summary_row(payload):
    return next(r for r in payload["rows"] if r.get("kind") == "summary")


class TestCorrelate:
    def test_equal_angles(self, capsys):
        code, payload = run_json(capsys, ["correlate", "--alpha", "0", "--beta", "0"])
        assert code == 0
        row = payload["rows"][0]
        assert row["correlation_analytic"] == -1.0
        assert abs(row["correlation_matrix"] + 1.0) <= 1e-13

    def test_half_angle_pair(self, capsys):
        code, payload = run_json(
            capsys,
            ["correlate", "--alpha", "0.7853981633974483", "--beta", "0.39269908169872414"],
        )
        row = payload["rows"][0]
        assert abs(row["correlation_analytic"] + SQRT2 / 2.0) <= 1e-13

    def test_json_round_trip_bit_exact(self, capsys):
        argv = ["correlate", "--alpha", "0.123456789", "--beta", "1.23456789", "--format", "json"]
        code1, out1 = run(capsys, argv)
        reparsed = json.loads(out1)
        assert json.dumps(reparsed, indent=2) + "\n" == out1

    def test_csv_and_json_encode_identical_values(self, capsys):
        argv = ["correlate", "--alpha", "0.3", "--beta", "0.9"]
        _, out_csv = run(capsys, argv)
        _, payload = run_json(capsys, argv)
        data_line = out_csv.strip().splitlines()[-1]
        header = out_csv.strip().splitlines()[-2].split(",")
        values = dict(zip(header, data_line.split(",")))
        for key in ("correlation_analytic", "p_pp", "p_mm"):
            assert float(values[key]) == payload["rows"][0][key]

    def test_degrees_flag(self, capsys):
        _, payload_deg = run_json(capsys, ["correlate", "--alpha", "45", "--beta", "22.5", "--degrees"])
        _, payload_rad = run_json(
            capsys, ["correlate", "--alpha", str(math.radians(45)), "--beta", str(math.radians(22.5))]
        )
        assert payload_deg["rows"] == payload_rad["rows"]

    def test_missing_flags_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["correlate", "--alpha", "0.1"])
        assert err.value.code == 2


class TestChsh:
    def test_same_lambda_sign_model(self, capsys):
        code, payload = run_json(
            capsys,
            ["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV,
             "--trials", "50000", "--seed", "3"],
        )
        assert code == 0
        row = payload["rows"][0]
        assert -2.0 <= row["estimate"] <= 2.0
        assert row["within_bound"] is True
        assert payload["status"] == "ok"

    def test_quantum_mode_reaches_tsirelson(self, capsys):
        code, payload = run_json(
            capsys, ["chsh", "--mode", "quantum", *MAXV, "--trials", "100000", "--seed", "4"]
        )
        assert code == 0
        row = payload["rows"][0]
        assert abs(abs(row["estimate"]) - SQRT8) <= 4.0 * row["stderr"]

    def test_independent_sign_model(self, capsys):
        code, payload = run_json(
            capsys,
            ["chsh", "--mode", "independent", "--model", "sign", *MAXV,
             "--trials", "50000", "--seed", "5"],
        )
        assert code == 0
        row = payload["rows"][0]
        assert -4.0 <= row["estimate"] <= 4.0

    def test_mimic_model_in_independent_mode(self, capsys):
        code, payload = run_json(
            capsys,
            ["chsh", "--mode", "independent", "--model", "quantum-mimic", *MAXV,
             "--trials", "50000", "--seed", "6"],
        )
        assert code == 0
        assert abs(abs(payload["rows"][0]["estimate"]) - SQRT8) <= 4.0 * payload["rows"][0]["stderr"]

    def test_missing_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["chsh", "--mode", "same-lambda", *MAXV])
        assert err.value.code == 2

    def test_unknown_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["chsh", "--mode", "same-lambda", "--model", "bogus", *MAXV])
        assert err.value.code == 2

    def test_model_rejected_in_quantum_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["chsh", "--mode", "quantum", "--model", "sign", *MAXV])
        assert err.value.code == 2

    def test_mimic_model_rejected_in_same_lambda_mode(self, capsys, monkeypatch):
        def unreachable(*a, **k):
            raise AssertionError("estimator ran before the flags were settled")

        monkeypatch.setattr(cli, "chsh_same_lambda", unreachable)
        with pytest.raises(SystemExit) as err:
            cli.main(["chsh", "--mode", "same-lambda", "--model", "quantum-mimic", *MAXV])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "quantum-mimic" in captured.err

    def test_estimator_value_error_exits_4(self, capsys, monkeypatch):
        def invalid_responses(*a, **k):
            raise ValueError("model 'sign' respond_a returned values outside {-1, +1}")

        monkeypatch.setattr(cli, "chsh_same_lambda", invalid_responses)
        code = cli.main(["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV, "--trials", "100"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("chshlab: numerical failure: model 'sign' respond_a")

    def test_deterministic_bound_violation_exits_3(self, capsys, monkeypatch):
        from chshlab.lhv import CorrelationEstimate

        monkeypatch.setattr(
            cli, "chsh_same_lambda", lambda *a, **k: CorrelationEstimate(2.5, 0.001, 100)
        )
        code, payload = run_json(
            capsys,
            ["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV, "--trials", "100"],
        )
        assert code == 3
        assert payload["status"] == "bound-violation"
        assert payload["rows"][0]["within_bound"] is False


class TestConstrained:
    def test_eval_at_max_violation_angles(self, capsys):
        code, payload = run_json(capsys, ["constrained", "eval", *MAXV])
        assert code == 0
        row = summary_row(payload)
        assert abs(row["expectation_closed"] + 4.0 * SQRT2 / 3.0) <= 1e-12
        assert abs(row["expectation_bruteforce"] + 4.0 * SQRT2 / 3.0) <= 1e-12
        cells = [r for r in payload["rows"] if r["kind"] == "cell"]
        assert len(cells) == 16
        assert abs(sum(c["probability"] for c in cells) - 1.0) <= 1e-12

    def test_eval_with_explicit_zero_quad(self, capsys):
        code, payload = run_json(capsys, ["constrained", "eval", "--q", "0,0,0,0"])
        assert code == 0
        row = summary_row(payload)
        assert row["expectation_closed"] == 0.0
        cells = [r for r in payload["rows"] if r["kind"] == "cell"]
        assert all(c["probability"] == 0.0625 for c in cells)

    def test_eval_degenerate_quad_status_row(self, capsys):
        code, payload = run_json(capsys, ["constrained", "eval", "--q=-1,1,1,1"])
        assert code == 0
        assert payload["status"] == "degenerate-conditioning"
        assert summary_row(payload)["expectation_closed"] is None

    def test_malformed_q_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["constrained", "eval", "--q", "1,2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("q", ["2,0,0,0", "0,-1.5,0,0", "nan,0,0,0", "0,0,inf,0", "0,0,0,-inf"])
    def test_out_of_range_q_is_usage_error(self, capsys, q):
        with pytest.raises(SystemExit) as err:
            cli.main(["constrained", "eval", f"--q={q}"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("q", ["a,b,c,d", "1,2", "0,0,0,0,0", "2,0,0,0", "nan,0,0,0"])
    def test_q_usage_errors_name_the_flag(self, capsys, q):
        with pytest.raises(SystemExit) as err:
            cli.main(["constrained", "eval", f"--q={q}"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "argument --q:" in captured.err

    def test_scan_action(self, capsys):
        code, payload = run_json(
            capsys,
            ["constrained", "scan", "--resolution", "8", "--restarts", "2", "--seed", "1"],
        )
        assert code == 0
        row = summary_row(payload)
        assert row["objective"] == "constrained_e4"
        assert row["n_violations"] == 0
        assert payload["status"] == "ok"


class TestSpectrum:
    def test_max_violation_angles(self, capsys):
        code, payload = run_json(capsys, ["spectrum", *MAXV])
        assert code == 0
        row = summary_row(payload)
        assert abs(row["t0"] - SQRT8) <= 1e-12
        assert abs(row["mean_formula"] + SQRT8) <= 1e-12
        assert row["weight_plus"] == 0.0
        assert row["weight_minus"] == 1.0
        eigen = sorted(r["eigenvalue"] for r in payload["rows"] if r["kind"] == "eigenvalue")
        assert abs(eigen[0] + SQRT8) <= 1e-10 and abs(eigen[3] - SQRT8) <= 1e-10

    def test_equal_angles(self, capsys):
        code, payload = run_json(
            capsys, ["spectrum", "--alpha1", "0.5", "--alpha2", "0.5", "--beta1", "0.5", "--beta2", "0.5"]
        )
        row = summary_row(payload)
        assert abs(row["t0"] - 2.0) <= 1e-12
        assert abs(row["mean_formula"] + 2.0) <= 1e-12
        assert row["weight_plus"] == 0.0 and row["weight_minus"] == 1.0

    def test_zero_t0_status(self, capsys):
        code, payload = run_json(
            capsys,
            ["spectrum", "--alpha1", str(math.pi / 4), "--alpha2", "0",
             "--beta1", str(math.pi / 4), "--beta2", "0"],
        )
        assert code == 0
        assert payload["status"] == "t0-zero"
        assert summary_row(payload)["weight_plus"] is None

    def test_rounding_near_zero_t0_is_not_a_failure(self, capsys):
        code, payload = run_json(capsys, ["spectrum", *NEAR_ZERO_T0])
        row = summary_row(payload)
        assert code == 0
        assert payload["status"] == "ok"
        assert abs(row["weight_plus"] + row["weight_minus"] - 1.0) <= 1e-15

    def test_mean_routes_agree(self, capsys):
        _, payload = run_json(
            capsys, ["spectrum", "--alpha1", "1.1", "--alpha2", "0.2", "--beta1", "0.7", "--beta2", "2.0"]
        )
        row = summary_row(payload)
        assert abs(row["mean_formula"] - row["mean_matrix"]) <= 1e-12
        assert abs(row["mean_formula"] - row["mean_distribution"]) <= 1e-12


class TestSimulate:
    def test_max_violation_t_outcomes_are_constant(self, capsys):
        code, payload = run_json(capsys, ["simulate", *MAXV, "--trials", "2000", "--seed", "7"])
        assert code == 0
        t_row = next(r for r in payload["rows"] if r["kind"] == "t-observable")
        assert t_row["empirical_mean"] == pytest.approx(-SQRT8, abs=1e-12)
        assert t_row["stderr"] <= 1e-12
        assert t_row["check"] == "PASS"

    def test_equal_angle_pairs_anticorrelated(self, capsys):
        code, payload = run_json(
            capsys,
            ["simulate", "--alpha1", "0.4", "--alpha2", "0.4", "--beta1", "0.4", "--beta2", "0.4",
             "--trials", "2000", "--seed", "8"],
        )
        for row in payload["rows"]:
            if row["kind"] == "pair":
                assert row["empirical_mean"] == -1.0
                assert row["check"] == "PASS"

    def test_rounding_near_zero_t0_is_not_a_failure(self, capsys):
        code, payload = run_json(capsys, ["simulate", *NEAR_ZERO_T0, "--trials", "1000", "--seed", "5"])
        assert code == 0
        assert payload["status"] == "ok"
        assert [r["kind"] for r in payload["rows"]] == ["pair"] * 4 + ["t-observable"]

    def test_statistical_checks_pass(self, capsys):
        code, payload = run_json(capsys, ["simulate", *MAXV, "--trials", "20000", "--seed", "9"])
        assert all(r["check"] == "PASS" for r in payload["rows"])


class TestScanCommand:
    def test_eight_variable_objective(self, capsys):
        code, payload = run_json(
            capsys,
            ["scan", "--objective", "eight_variable_sum", "--resolution", "8",
             "--restarts", "2", "--seed", "1"],
        )
        assert code == 0
        row = summary_row(payload)
        assert row["n_violations"] == 0
        assert abs(row["max_value"] - SQRT8) <= 1e-9

    def test_artificially_low_bound_reports_violations(self, capsys):
        code, payload = run_json(
            capsys,
            ["scan", "--objective", "eight_variable_sum", "--bound", "2.0",
             "--resolution", "8", "--restarts", "2", "--seed", "1"],
        )
        assert code == 0
        assert payload["status"] == "violations"
        assert summary_row(payload)["n_violations"] > 0
        assert any(r["kind"] == "violation" for r in payload["rows"])

    @pytest.mark.parametrize("head", [["scan"], ["constrained", "scan"]])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--resolution", "1"],
            ["--resolution", "-4"],
            ["--resolution", "129"],
            ["--restarts", "-3"],
            ["--bound", "nan"],
            ["--bound", "inf"],
        ],
    )
    def test_invalid_arguments_are_usage_errors(self, capsys, head, flags):
        with pytest.raises(SystemExit) as err:
            cli.main(head + flags)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("head", [["scan"], ["constrained", "scan"]])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--resolution", "x"),
            ("--resolution", "1"),
            ("--resolution", "129"),
            ("--restarts", "1.5"),
            ("--restarts", "-3"),
            ("--bound", "x"),
            ("--bound", "nan"),
        ],
    )
    def test_usage_errors_name_the_flag(self, capsys, head, flag, value):
        with pytest.raises(SystemExit) as err:
            cli.main(head + [flag, value])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"argument {flag}:" in captured.err


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["correlate", "--alpha", "0.31", "--beta", "1.7"],
            ["correlate", "--alpha", "0.31", "--beta", "1.7", "--format", "json"],
            ["chsh", "--mode", "quantum", *MAXV, "--trials", "5000", "--seed", "11"],
            ["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV, "--trials", "5000", "--seed", "12"],
            ["constrained", "eval", *MAXV, "--format", "json"],
            ["spectrum", *MAXV],
            ["simulate", *MAXV, "--trials", "3000", "--seed", "13"],
            ["scan", "--objective", "t_validity_margin", "--resolution", "6", "--restarts", "2", "--seed", "14"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1 = run(capsys, list(argv))
        code2, out2 = run(capsys, list(argv))
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_out_file_reruns_identical(self, capsys, tmp_path):
        argv = ["spectrum", *MAXV]
        _, stdout_text = run(capsys, list(argv))
        path = tmp_path / "report.csv"
        code = cli.main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        first = path.read_bytes()
        cli.main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert path.read_bytes() == first
        # data rows agree with the stdout run; only the echoed out-path differs
        strip = lambda text: text.splitlines()[1:]
        assert strip(first.decode("utf-8")) == strip(stdout_text)

    def test_numerical_failure_exits_4(self, capsys, monkeypatch):
        from chshlab.linalg import EigenConvergenceError

        def explode(*a, **k):
            raise EigenConvergenceError("forced")

        monkeypatch.setattr(cli, "t_spectrum", explode)
        code = cli.main(["spectrum", *MAXV])
        captured = capsys.readouterr()
        assert code == 4
        assert "numerical failure" in captured.err

    def test_asymmetric_spectrum_exits_4(self, capsys, monkeypatch):
        from chshlab.chsh_operator import AsymmetricSpectrumError

        def explode(*a, **k):
            raise AsymmetricSpectrumError("forced")

        monkeypatch.setattr(cli, "t_spectrum", explode)
        code = cli.main(["spectrum", *MAXV])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("chshlab: numerical failure:")

    def test_config_echo_contains_version_and_seed(self, capsys):
        _, payload = run_json(
            capsys, ["chsh", "--mode", "quantum", *MAXV, "--trials", "2000", "--seed", "77"]
        )
        assert payload["config"]["seed"] == 77
        assert payload["config"]["trials"] == 2000
        from chshlab import __version__

        assert payload["config"]["version"] == __version__


# Column order is part of the output contract: the CSV header and the key
# order of every JSON row.
COLUMNS = {
    "correlate": ("alpha", "beta", "correlation_analytic", "correlation_matrix",
                  "p_pp", "p_pm", "p_mp", "p_mm"),
    "chsh": ("mode", "model", "estimate", "stderr", "trials", "bound_lo", "bound_hi", "within_bound"),
    "constrained": ("kind", "k1", "l1", "k4", "l4", "probability", "q1", "q2", "q3", "q4",
                    "expectation_closed", "expectation_bruteforce", "eight_variable_sum", "normalizer"),
    "spectrum": ("kind", "index", "eigenvalue", "overlap_with_singlet", "t0", "t1", "mean_formula",
                 "mean_matrix", "mean_distribution", "weight_plus", "weight_minus"),
    "simulate": ("kind", "pair_index", "alpha", "beta", "empirical_mean", "analytic_mean",
                 "stderr", "trials", "check"),
    "scan": ("kind", "objective", "resolution", "restarts", "n_evaluated", "n_skipped",
             "n_refinements", "bound", "max_value", "min_value", "n_violations",
             "alpha1", "alpha2", "beta1", "beta2", "value"),
}
SCAN_FLAGS = ["--resolution", "6", "--restarts", "1"]


class TestRowSchema:
    @pytest.mark.parametrize(
        "schema, argv, status",
        [
            ("correlate", ["correlate", "--alpha", "0.3", "--beta", "0.9"], "ok"),
            ("chsh", ["chsh", "--mode", "quantum", *MAXV, "--trials", "200"], "ok"),
            ("chsh", ["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV, "--trials", "200"],
             "bound-violation"),
            ("constrained", ["constrained", "eval", *MAXV], "ok"),
            ("constrained", ["constrained", "eval", "--q=-1,1,1,1"], "degenerate-conditioning"),
            ("spectrum", ["spectrum", *MAXV], "ok"),
            ("spectrum", ["spectrum", *ZERO_T0], "t0-zero"),
            ("simulate", ["simulate", *MAXV, "--trials", "200"], "ok"),
            ("simulate", ["simulate", *ZERO_T0, "--trials", "200"], "t0-zero"),
            ("scan", ["scan", *SCAN_FLAGS], "ok"),
            ("scan", ["scan", "--objective", "eight_variable_sum", "--bound", "2", *SCAN_FLAGS], "violations"),
            ("scan", ["constrained", "scan", *SCAN_FLAGS], "ok"),
            ("scan", ["constrained", "scan", "--bound", "0.5", *SCAN_FLAGS], "violations"),
        ],
    )
    def test_csv_header_and_json_keys_follow_the_column_tuple(self, capsys, monkeypatch, schema, argv, status):
        from chshlab.lhv import CorrelationEstimate

        if status == "bound-violation":
            monkeypatch.setattr(
                cli, "chsh_same_lambda", lambda *a, **k: CorrelationEstimate(2.5, 0.001, 100)
            )
        columns = list(COLUMNS[schema])
        assert list(getattr(cli, f"{schema.upper()}_COLUMNS")) == columns

        _, out = run(capsys, argv)
        lines = out.splitlines()
        assert lines[1] == f"# status: {status}"
        assert lines[2].split(",") == columns
        assert all(len(fields) == len(columns) for fields in csv.reader(lines[3:]))

        _, payload = run_json(capsys, argv)
        assert payload["status"] == status
        assert payload["rows"]
        assert all(list(row) == columns for row in payload["rows"])


class TestParserCache:
    # All six subcommands, CSV and JSON, a usage error, then the first argv again.
    ARGVS = [
        ["correlate", "--alpha", "0.3", "--beta", "1.1"],
        ["chsh", "--mode", "independent", "--model", "sign", *MAXV, "--trials", "500", "--seed", "4", "--format", "json"],
        ["constrained", "eval", "--alpha1", "0.2", "--alpha2", "0.9", "--beta1", "0.4", "--beta2", "1.3"],
        ["spectrum", "--alpha1", "0.6", "--alpha2", "0.6", "--beta1", "0.2", "--beta2", "0.2", "--format", "json"],
        ["simulate", *MAXV, "--trials", "300", "--seed", "2"],
        ["chsh", "--mode", "quantum", *MAXV, "--trials", "1"],
        ["scan", "--objective", "eight_variable_sum", "--resolution", "6", "--restarts", "2", "--format", "json"],
        ["constrained", "scan", "--resolution", "6", "--restarts", "1", "--seed", "3"],
        ["correlate", "--alpha", "0.3", "--beta", "1.1"],
    ]

    @staticmethod
    def outputs(capsys, argvs):
        results = []
        for argv in argvs:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_one_parser_per_process_matches_fresh_parsers(self, capsys, monkeypatch):
        cached = self.outputs(capsys, self.ARGVS)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outputs(capsys, self.ARGVS)
        assert [r[0] for r in cached] == [0, 0, 0, 0, 0, 2, 0, 0, 0]
        assert cached == fresh
        assert cached[-1] == cached[0]


class TestInputBoundary:
    @pytest.mark.parametrize("trials", ["1", "0", "-5"])
    @pytest.mark.parametrize(
        "head", [["chsh", "--mode", "quantum"], ["chsh", "--mode", "same-lambda", "--model", "sign"], ["simulate"]]
    )
    def test_fewer_than_two_trials_is_usage_error(self, capsys, head, trials):
        with pytest.raises(SystemExit) as err:
            cli.main(head + MAXV + ["--trials", trials])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["correlate", "--alpha", "{}", "--beta", "0.1"],
            ["correlate", "--alpha", "0.1", "--beta", "{}"],
            ["chsh", "--mode", "quantum", "--alpha1", "{}", "--alpha2", "0", "--beta1", "0.3", "--beta2", "1"],
            ["spectrum", "--alpha1", "{}", "--alpha2", "0", "--beta1", "0.3", "--beta2", "1"],
            ["simulate", "--alpha1", "0.2", "--alpha2", "0", "--beta1", "0.3", "--beta2", "{}"],
            ["constrained", "eval", "--alpha1", "0.2", "--alpha2", "{}", "--beta1", "0.3", "--beta2", "1"],
        ],
    )
    def test_non_finite_angles_are_usage_errors(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as err:
            cli.main([a.format(bad) for a in argv])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_output_exits_4_without_output(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "singlet_correlation", lambda *a: math.nan)
        code = cli.main(["correlate", "--alpha", "0.1", "--beta", "0.2", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "numerical failure" in captured.err

    def test_two_trials_report_finite_stderr(self, capsys):
        code, payload = run_json(capsys, ["simulate", *MAXV, "--trials", "2", "--seed", "3"])
        assert code == 0
        assert all(math.isfinite(r["stderr"]) for r in payload["rows"])

    def test_correlate_uses_the_pair_correlation_kernel(self, capsys):
        from chshlab import kernels

        _, payload = run_json(capsys, ["correlate", "--alpha", "0.123", "--beta", "1.7"])
        assert payload["rows"][0]["correlation_analytic"] == float(kernels.pair_correlation(0.123, 1.7))

    @pytest.mark.parametrize(
        "head",
        [
            ["chsh", "--mode", "quantum", *MAXV, "--trials", "2"],
            ["simulate", *MAXV, "--trials", "2"],
            ["scan", "--resolution", "2", "--restarts", "0"],
            ["constrained", "scan", "--resolution", "2", "--restarts", "0"],
        ],
    )
    def test_negative_seed_is_usage_error(self, capsys, head):
        with pytest.raises(SystemExit) as err:
            cli.main(head + ["--seed", "-5"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "argument --seed" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["correlate", "--alpha=-1e308", "--beta=1e308"],
            ["spectrum", "--alpha1", "1e300", "--alpha2=-1e300", "--beta1", "3", "--beta2", "1e-300"],
            ["correlate", "--alpha", "1000000.0000001", "--beta", "0"],
            ["chsh", "--mode", "quantum", "--alpha1", "0", "--alpha2", "0", "--beta1", "0", "--beta2=-1e7"],
            ["constrained", "eval", "--alpha1", "0", "--alpha2", "2e6", "--beta1", "0", "--beta2", "0", "--degrees"],
            ["simulate", "--alpha1", "0", "--alpha2", "0", "--beta1", "1e16", "--beta2", "0"],
        ],
    )
    def test_huge_angles_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "|angle| must be at most 1e+06" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["correlate", "--alpha=-1e6", "--beta=1e6"],
            ["correlate", "--alpha=1e6", "--beta=-1e6", "--degrees"],
            ["spectrum", "--alpha1=1e6", "--alpha2=-1e6", "--beta1", "3", "--beta2", "1e-300"],
            ["chsh", "--mode", "quantum", "--alpha1=-1e6", "--alpha2=1e6", "--beta1=1e6", "--beta2=0",
             "--trials", "100"],
            ["simulate", "--alpha1=1e6", "--alpha2=-1e6", "--beta1=1e6", "--beta2=-0.5", "--trials", "100"],
            ["constrained", "eval", "--alpha1=1e6", "--alpha2=-1e6", "--beta1=1e6", "--beta2=-1e6"],
        ],
    )
    def test_largest_accepted_angles(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["status"] == "ok"

    def test_spectrum_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["spectrum", *MAXV, "--seed", "1"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        _, payload = run_json(capsys, ["spectrum", *MAXV])
        assert "seed" not in payload["config"]
        _, out = run(capsys, ["spectrum", *MAXV])
        assert "seed" not in json.loads(out.splitlines()[0].removeprefix("# config: "))

    @pytest.mark.parametrize("target", ["missing/dir/report.csv", ""], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        code = cli.main(["correlate", "--alpha", "0", "--beta", "0", "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("chshlab: cannot write --out: ")
        assert captured.err.count("\n") == 1


# Fuzz values per flag, (valid, invalid): NaN, inf, huge, negative and
# non-numeric values are invalid. Valid counts (trials, resolution, restarts)
# stay small, so every drawn run finishes in milliseconds.
ANGLE_VALUES = (["0", "0.3", "-2.5", "45", "1e-300", "1e6", "-1e6"],
                ["nan", "inf", "-inf", "1e308", "-1e308", "1000001", "x", ""])
FUZZ_VALUES = {
    **dict.fromkeys(["--alpha", "--beta", "--alpha1", "--alpha2", "--beta1", "--beta2"], ANGLE_VALUES),
    "--bound": (["0", "2", "-5", "1e308", "-1e308", "1e-300"], ["nan", "inf", "x", ""]),
    "--trials": (["2", "37"], ["1", "0", "-5", "2.5", "nan", "x"]),
    "--seed": (["0", "7", "99999999999999999999"], ["-1", "-5", "1.5", "x"]),
    "--resolution": (["2", "3"], ["1", "129", "-1", "1e6", "x"]),
    "--restarts": (["0", "1"], ["-1", "1.5", "x"]),
    "--q": (["0,0,0,0", "-1,1,1,1", "0.5,-0.2,0.9,1"], ["2,0,0,0", "0,nan,0,0", "1e308,0,0,0", "a,b,c,d", "0,0,0"]),
    "--mode": (["quantum", "same-lambda", "independent"], ["bogus"]),
    "--model": (["sign", "quantum-mimic"], ["bogus"]),
    "--objective": (["constrained_e4", "eight_variable_sum", "t_validity_margin"], ["bogus"]),
    "--format": (["csv", "json"], ["xml"]),
}
# Flags of each subcommand and their kind: "required" (a run without it is
# a usage error), "optional", "pinned" (always given, because its default
# makes a slow run) or "foreign" (the subcommand does not take it).
ANGLES = [(flag, "required") for flag in ("--alpha1", "--alpha2", "--beta1", "--beta2")]
SCAN = [("--resolution", "pinned"), ("--restarts", "pinned"), ("--bound", "optional"), ("--seed", "optional")]
SUBCOMMAND_FLAGS = {
    ("correlate",): [("--alpha", "required"), ("--beta", "required")],
    ("chsh",): [("--mode", "required"), ("--model", "optional"), *ANGLES,
                ("--trials", "pinned"), ("--seed", "optional")],
    ("constrained", "eval"): [*ANGLES, ("--q", "optional"), *SCAN],
    ("constrained", "scan"): SCAN,
    ("spectrum",): [*ANGLES, ("--seed", "foreign")],
    ("simulate",): [*ANGLES, ("--trials", "pinned"), ("--seed", "optional")],
    ("scan",): [("--objective", "optional"), *SCAN],
}


@st.composite
def fuzz_argv(draw):
    """(argv, bad): a subcommand with valid flags, then up to two flags broken.

    ``bad`` is true when a flag ends with an invalid value or the subcommand
    does not take it, which must be a usage error.
    """
    head = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = SUBCOMMAND_FLAGS[head] + [("--format", "optional")]
    values, bad = {}, set()
    for flag, kind in flags:
        if kind in ("required", "pinned") or (kind == "optional" and draw(st.booleans())):
            values[flag] = draw(st.sampled_from(FUZZ_VALUES[flag][0]))
    # Broken: an invalid value, a required flag left out, or any value of a
    # flag the subcommand does not take.
    n_broken = draw(st.integers(0, 2))
    for flag, kind in draw(st.lists(st.sampled_from(flags), min_size=n_broken, max_size=n_broken)):
        valid, invalid = FUZZ_VALUES[flag]
        value = st.sampled_from(valid if kind == "foreign" else invalid)
        values[flag] = draw(st.one_of(st.none(), value) if kind == "required" else value)
        if values[flag] is None:
            bad.discard(flag)
        else:
            bad.add(flag)
    argv = list(head) + [f"{flag}={value}" for flag, value in values.items() if value is not None]
    if draw(st.booleans()):
        argv.append("--degrees")
    return argv, bool(bad)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # the only exception allowed out of main
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @settings(max_examples=100, deadline=None)
    @given(fuzz_argv())
    def test_exit_codes_streams_and_schema(self, case):
        argv, bad = case
        code, out, err = _run_isolated(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert code == 2 or not bad, (argv, code, err)
        assert "Traceback" not in err
        if code in (2, 4):
            assert out == ""
        else:
            fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "csv")
            name = "scan" if "scan" in argv else argv[0]
            columns = list(getattr(cli, f"{name.upper()}_COLUMNS"))
            if fmt == "json":
                payload = json.loads(out, parse_constant=_reject_constant)
                assert all(list(row) == columns for row in payload["rows"])
            else:
                lines = out.splitlines()
                json.loads(lines[0].removeprefix("# config: "), parse_constant=_reject_constant)
                assert lines[1].startswith("# status: ")
                assert lines[2].split(",") == columns
                fields = [f.lower() for row in csv.reader(lines[3:]) for f in row]
                assert not {"nan", "inf", "-inf"} & set(fields)
        assert _run_isolated(argv) == (code, out, err)
