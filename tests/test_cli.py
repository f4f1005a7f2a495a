import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import __version__, cli
from chshlab.chsh_operator import AsymmetricSpectrumError, t_estimate
from chshlab.lhv import (
    AngleConfig,
    CorrelationEstimate,
    angle_pairs,
    chsh_independent,
    chsh_same_lambda,
    quantum_chsh_independent,
)
from chshlab.linalg import EigenConvergenceError
from chshlab.quantum import joint_distribution, product_estimate
from chshlab.scan import MAX_RESTARTS
from chshlab.seeding import component_stream

SQRT2 = math.sqrt(2.0)
SQRT8 = 2.0 * SQRT2

MAXV = ["--alpha1", str(math.pi / 4), "--alpha2", "0",
        "--beta1", str(math.pi / 8), "--beta2", str(3 * math.pi / 8)]
# Off the Tsirelson angles, where the same-lambda sum and the t-observable's
# outcomes are constant: every draw moves the estimates here.
SPREAD = ["--alpha1", "0.3", "--alpha2", "1", "--beta1", "2", "--beta2", "0.1"]
SPREAD_CONFIG = AngleConfig(0.3, 1.0, 2.0, 0.1)

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


def argv_of(text):
    """The argv of a table row: its whitespace-separated words, with MAXV standing for the Tsirelson angles."""
    return [arg for word in text.split() for arg in (MAXV if word == "MAXV" else [word])]


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


class TestChsh:
    @pytest.mark.parametrize(
        "mode, model, estimator, stream, lo, hi",
        [
            ("same-lambda", "sign", chsh_same_lambda, "chsh/same-lambda", -2.0, 2.0),
            ("independent", "sign", chsh_independent, "chsh/independent", -4.0, 4.0),
            ("independent", "quantum-mimic", quantum_chsh_independent, "chsh/independent", -4.0, 4.0),
            ("quantum", None, quantum_chsh_independent, "chsh/quantum", -SQRT8, SQRT8),
        ],
        ids=["same-lambda-sign", "independent-sign", "independent-quantum-mimic", "quantum"],
    )
    def test_row_is_the_estimator_on_its_stream(self, capsys, mode, model, estimator, stream, lo, hi):
        model_flags = ["--model", model] if model else []
        argv = ["chsh", "--mode", mode, *model_flags, *SPREAD, "--trials", "2000", "--seed", "9"]
        code, payload = run_json(capsys, argv)
        est = estimator(SPREAD_CONFIG, 2000, component_stream(9, stream))
        row = {"mode": mode, "model": model, "estimate": est.mean, "stderr": est.stderr, "trials": est.n_samples,
               "bound_lo": lo, "bound_hi": hi, "within_bound": True}
        assert (code, payload["rows"], payload["status"]) == (0, [row], "ok")

    def test_deterministic_bound_violation_exits_3(self, capsys, monkeypatch):
        # The next double above 2, with a nonzero stderr: only the zero slack
        # of a deterministic bound makes it a violation.
        monkeypatch.setattr(
            cli, "chsh_same_lambda", lambda *a, **k: CorrelationEstimate(2.0000000000000004, 0.001, 100)
        )
        argv = ["chsh", "--mode", "same-lambda", "--model", "sign", *MAXV, "--trials", "100"]
        code, payload = run_json(capsys, argv)
        assert code == 3
        assert payload["status"] == "bound-violation"
        assert payload["rows"][0]["within_bound"] is False
        code, out = run(capsys, argv)
        assert code == 3
        assert out.splitlines()[-1] == "same-lambda,sign,2.0000000000000004,0.001,100,-2,2,false"


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

    @pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--bound", "0.5"]])
    def test_scan_action_is_scan_of_constrained_e4(self, capsys, extra):
        flags = ["--resolution", "6", "--restarts", "2", "--seed", "3", *extra]
        code, out = run(capsys, ["constrained", "scan", *flags])
        assert (code, out) == run(capsys, ["scan", "--objective", "constrained_e4", *flags])
        assert code == 0
        status = "violations" if "--bound" in extra else "ok"
        expected = f'"status": "{status}"' if "json" in extra else f"# status: {status}\n"
        assert expected in out


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

    def test_rows_are_the_estimators_on_their_streams(self, capsys):
        code, payload = run_json(capsys, ["simulate", *SPREAD, "--trials", "2000", "--seed", "7"])
        pairs = component_stream(7, "simulate/pairs")  # the four pairs read it back to back
        expected = [product_estimate(joint_distribution(a, b), 2000, pairs) for a, b in angle_pairs(SPREAD_CONFIG)]
        expected.append(t_estimate(SPREAD_CONFIG, 2000, component_stream(7, "simulate/t-observable")))
        assert code == 0
        assert [(r["empirical_mean"], r["stderr"], r["trials"]) for r in payload["rows"]] == [
            (est.mean, est.stderr, est.n_samples) for est in expected
        ]


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
    def test_restarts_cap_is_max_restarts(self, head):
        # parse only: a scan at the cap itself takes tens of seconds
        parser = cli.build_parser()
        assert parser.parse_args(head + ["--restarts", str(MAX_RESTARTS)]).restarts == MAX_RESTARTS
        with pytest.raises(SystemExit) as err:
            parser.parse_args(head + ["--restarts", str(MAX_RESTARTS + 1)])
        assert err.value.code == 2


MAXV_ECHO = {"alpha1": 0.7853981633974483, "alpha2": 0.0, "beta1": 0.39269908169872414, "beta2": 1.1780972450961724}
# One argv per command and the configuration it echoes between the version
# and the format: every resolved flag, angles in radians.
CONFIG_ECHOES = [
    ("correlate --alpha 45 --beta 22.5 --degrees",
     {"subcommand": "correlate", "alpha": 0.7853981633974483, "beta": 0.39269908169872414}),
    ("chsh --mode quantum MAXV --trials 2000 --seed 77",
     {"subcommand": "chsh", "mode": "quantum", "model": None, **MAXV_ECHO, "trials": 2000, "seed": 77}),
    ("constrained eval --q=0.5,-0.2,0.9,1",
     {"subcommand": "constrained", "action": "eval", "q": [0.5, -0.2, 0.9, 1.0]}),
    ("constrained scan --resolution 2 --restarts 0 --bound 0.5 --seed 3",
     {"subcommand": "scan", "objective": "constrained_e4", "bound": 0.5, "resolution": 2, "restarts": 0,
      "seed": 3}),
    ("spectrum MAXV", {"subcommand": "spectrum", **MAXV_ECHO}),
    ("simulate MAXV --trials 200", {"subcommand": "simulate", **MAXV_ECHO, "trials": 200, "seed": 0}),
    # Without --bound, the bound the scan used: the objective's default.
    ("scan --objective eight_variable_sum --resolution 4 --restarts 0",
     {"subcommand": "scan", "objective": "eight_variable_sum", "bound": 2.8284271247461903, "resolution": 4,
      "restarts": 0, "seed": 0}),
]


class TestReproducibility:
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

    @pytest.mark.parametrize("argv, echo", CONFIG_ECHOES, ids=[argv for argv, _ in CONFIG_ECHOES])
    def test_config_echo(self, capsys, argv, echo):
        config = {"version": __version__, **echo, "format": None, "out": None}
        code, out = run(capsys, argv_of(argv))
        assert code == 0
        assert out.splitlines()[0] == "# config: " + json.dumps({**config, "format": "csv"})
        _, payload = run_json(capsys, argv_of(argv))
        assert list(payload["config"].items()) == list({**config, "format": "json"}.items())


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
            # 1 + q1 q2 q3 q4 = 1e-11: the closed form and the table both answer.
            ("constrained", ["constrained", "eval", "--q=1,1,1,-0.99999999999"], "ok"),
        ],
    )
    def test_csv_header_and_json_keys_follow_the_column_tuple(self, capsys, monkeypatch, schema, argv, status):
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


NON_FINITE = [  # (words, argv with {} for the angle, the angle's flag)
    ("correlate", "correlate --alpha {} --beta 0.1", "--alpha"),
    ("correlate", "correlate --alpha 0.1 --beta {}", "--beta"),
    ("chsh", "chsh --mode quantum --alpha1 {} --alpha2 0 --beta1 0.3 --beta2 1", "--alpha1"),
    ("spectrum", "spectrum --alpha1 {} --alpha2 0 --beta1 0.3 --beta2 1", "--alpha1"),
    ("simulate", "simulate --alpha1 0.2 --alpha2 0 --beta1 0.3 --beta2 {}", "--beta2"),
    ("constrained eval", "constrained eval --alpha1 0.2 --alpha2 {} --beta1 0.3 --beta2 1", "--alpha2"),
]
# Usage errors, (usage words, argv, fragment of the error line); MAXV in an
# argv stands for the Tsirelson angles. Stderr is the usage line of the parser
# that rejected the argv, then "chshlab <words>: error: <message>". A flag
# its command does not take is left over, and the top-level parser reports
# it, under words "", as it reports a missing or unknown command.
USAGE_ERRORS = [
    # commands, actions and choices
    ("", "", "the following arguments are required: subcommand"),
    ("", "bogus", "argument subcommand: invalid choice: 'bogus'"),
    ("constrained", "constrained", "the following arguments are required: action"),
    ("constrained", "constrained bogus", "argument action: invalid choice: 'bogus'"),
    ("chsh", "chsh MAXV", "the following arguments are required: --mode"),
    ("chsh", "chsh --mode bogus MAXV", "argument --mode: invalid choice: 'bogus'"),
    ("scan", "scan --objective bogus", "argument --objective: invalid choice: 'bogus'"),
    *[(words, f"{words} {flags} --format xml", "argument --format: invalid choice: 'xml'")
      for words, flags in [("correlate", "--alpha 0 --beta 0"), ("chsh", "--mode quantum MAXV"),
                           ("constrained eval", "--q=0,0,0,0"), ("constrained scan", "--resolution 2"),
                           ("spectrum", "MAXV"), ("simulate", "MAXV"), ("scan", "--resolution 2")]],
    ("correlate", "correlate --alpha 0 --beta 0 --out", "argument --out: expected one argument"),
    # required flags
    ("correlate", "correlate --alpha 0.1", "the following arguments are required: --beta"),
    ("chsh", "chsh --mode quantum --alpha1 0.7853981633974483 --alpha2 0 --beta1 0.39269908169872414",
     "the following arguments are required: --beta2"),
    ("spectrum", "spectrum --alpha2 0 --beta1 0.39269908169872414 --beta2 1.1780972450961724",
     "the following arguments are required: --alpha1"),
    ("simulate", "simulate --alpha1 0.7853981633974483 --beta1 0.39269908169872414 --beta2 1.1780972450961724",
     "the following arguments are required: --alpha2"),
    ("constrained eval", "constrained eval --alpha1 0.7853981633974483 --alpha2 0 --beta1 0.39269908169872414",
     "the following arguments are required without --q: --beta2"),
    ("constrained eval", "constrained eval --degrees",
     "the following arguments are required without --q: --alpha1, --alpha2, --beta1, --beta2"),
    # the chsh model rules
    ("chsh", "chsh --mode same-lambda MAXV", "--model is required for mode same-lambda"),
    ("chsh", "chsh --mode independent MAXV", "--model is required for mode independent"),
    ("chsh", "chsh --mode same-lambda --model bogus MAXV", "argument --model: invalid choice: 'bogus'"),
    ("chsh", "chsh --mode quantum --model sign MAXV", "--model is not accepted in quantum mode"),
    ("chsh", "chsh --mode same-lambda --model quantum-mimic MAXV",
     "same-lambda mode requires a local-hidden-variable model, not quantum-mimic"),
    # --q: four reals in [-1, 1], and only without angles
    *[("constrained eval", f"constrained eval --q={q}", "argument --q: entries must be finite and lie in [-1, 1]")
      for q in ("2,0,0,0", "0,-1.5,0,0", "nan,0,0,0", "0,0,inf,0", "0,0,0,-inf")],
    *[("constrained eval", argv, "argument --q: expects 4 comma-separated reals")
      for argv in ("constrained eval --q 1,2", "constrained eval --q=1,2", "constrained eval --q=a,b,c,d",
                   "constrained eval --q=0,0,0,0,0")],
    ("constrained eval", "constrained eval MAXV --q=0,0,0,0",
     "argument --q: not allowed with --alpha1, --alpha2, --beta1, --beta2"),
    ("constrained eval", "constrained eval --alpha1 1 --q=0,0,0,0", "argument --q: not allowed with --alpha1"),
    ("constrained eval", "constrained eval --q=0,0,0,0 --degrees", "argument --q: not allowed with --degrees"),
    ("constrained eval", "constrained eval --beta2 1 --degrees --q=0,0,0,0",
     "argument --q: not allowed with --beta2, --degrees"),
    # counts and bounds
    *[(words, f"{head} MAXV --trials {trials}", "argument --trials: must lie in [2, inf]")
      for words, head in [("chsh", "chsh --mode quantum"), ("chsh", "chsh --mode same-lambda --model sign"),
                          ("simulate", "simulate")]
      for trials in ("1", "0", "-5")],
    *[(words, f"{head} MAXV {flag} {value}", f"argument {flag}: invalid integer value: '{value}'")
      for words, head, flag, value in [("chsh", "chsh --mode quantum", "--trials", "2.5"),
                                       ("simulate", "simulate", "--trials", "x"),
                                       ("chsh", "chsh --mode quantum", "--seed", "x"),
                                       ("simulate", "simulate", "--seed", "1.5")]],
    *[(head, f"{head} {flag} {value}", f"argument {flag}: {message}")
      for head in ("scan", "constrained scan")
      for flag, value, message in [
          ("--resolution", "1", "must lie in [2, 128]"),
          ("--resolution", "-4", "must lie in [2, 128]"),
          ("--resolution", "129", "must lie in [2, 128]"),
          ("--resolution", "x", "invalid integer value: 'x'"),
          ("--restarts", "-3", "must lie in [0, 10000]"),
          ("--restarts", "10001", "must lie in [0, 10000]"),
          ("--restarts", "1.5", "invalid integer value: '1.5'"),
          ("--bound", "nan", "expected a finite real, got 'nan'"),
          ("--bound", "inf", "expected a finite real, got 'inf'"),
          ("--bound", "x", "expected a finite real, got 'x'"),
      ]],
    *[(words, f"{head} --seed -5", "argument --seed: must lie in [0, inf]")
      for words, head in [("chsh", "chsh --mode quantum MAXV --trials 2"), ("simulate", "simulate MAXV --trials 2"),
                          ("scan", "scan --resolution 2 --restarts 0"),
                          ("constrained scan", "constrained scan --resolution 2 --restarts 0")]],
    # angles: finite, at most 1e6 in their own unit. argparse reads "-inf"
    # after a flag as another option, so that flag gets no value.
    *[(words, argv.format(bad), f"argument {flag}: expected a finite real, got '{bad}'")
      for words, argv, flag in NON_FINITE for bad in ("nan", "inf")],
    *[(words, argv.format("-inf"), f"argument {flag}: expected one argument") for words, argv, flag in NON_FINITE],
    ("correlate", "correlate --alpha x --beta 0", "argument --alpha: expected a finite real, got 'x'"),
    ("spectrum", "spectrum --alpha1= --alpha2 0 --beta1 0 --beta2 0",
     "argument --alpha1: expected a finite real, got ''"),
    ("correlate", "correlate --alpha=-1e308 --beta=1e308",
     "argument --alpha: |angle| must be at most 1e+06, got '-1e308'"),
    ("correlate", "correlate --alpha 1000000.0000001 --beta 0",
     "argument --alpha: |angle| must be at most 1e+06, got '1000000.0000001'"),
    ("spectrum", "spectrum --alpha1 1e300 --alpha2=-1e300 --beta1 3 --beta2 1e-300",
     "argument --alpha1: |angle| must be at most 1e+06, got '1e300'"),
    ("chsh", "chsh --mode quantum --alpha1 0 --alpha2 0 --beta1 0 --beta2=-1e7",
     "argument --beta2: |angle| must be at most 1e+06, got '-1e7'"),
    ("constrained eval", "constrained eval --alpha1 0 --alpha2 2e6 --beta1 0 --beta2 0 --degrees",
     "argument --alpha2: |angle| must be at most 1e+06, got '2e6'"),
    ("simulate", "simulate --alpha1 0 --alpha2 0 --beta1 1e16 --beta2 0",
     "argument --beta1: |angle| must be at most 1e+06, got '1e16'"),
    # flags a command does not take
    *[("", f"constrained eval MAXV {flags}", f"unrecognized arguments: {flags}")
      for flags in ("--resolution 8", "--restarts 2", "--bound 0.5", "--seed 1")],
    *[("", f"constrained scan --resolution 8 --restarts 2 {flag}", f"unrecognized arguments: {flag}")
      for flag in ("--alpha1 1", "--q=0,0,0,0", "--degrees")],
    ("", "scan --resolution 8 --restarts 2 --degrees", "unrecognized arguments: --degrees"),
    ("", "spectrum MAXV --seed 1", "unrecognized arguments: --seed 1"),
    ("", "spectrum MAXV --trials 5", "unrecognized arguments: --trials 5"),
    ("", "correlate --alpha 0 --beta 0 --seed 1", "unrecognized arguments: --seed 1"),
    ("", "correlate --alpha 0 --beta 0 --bogus", "unrecognized arguments: --bogus"),
    ("constrained", "constrained --format json eval MAXV", "argument action: invalid choice: 'json'"),
]
# What each command computes once its flags are settled; a usage error comes before all of it.
WORK = ("joint_distribution", "chsh_same_lambda", "chsh_independent", "quantum_chsh_independent",
        "_constrained_rows", "build_t", "product_estimate", "t_estimate", "verify_bound")


def fails_with(exc):
    def call(*args, **kwargs):
        raise exc

    return call


# Numerical failures, (argv, the cli name replaced, its stand-in, the message
# after "chshlab: numerical failure: "). A NaN or infinite output is never written.
NUMERICAL_FAILURES = [
    pytest.param("chsh --mode same-lambda --model sign MAXV --trials 100", "chsh_same_lambda",
                 fails_with(ValueError("per-trial values outside (-2, 2)")), "per-trial values outside (-2, 2)",
                 id="estimator-value-error"),
    pytest.param("spectrum MAXV", "t_spectrum", fails_with(EigenConvergenceError("forced")), "forced",
                 id="eigen-convergence"),
    pytest.param("spectrum MAXV", "t_spectrum", fails_with(AsymmetricSpectrumError("forced")), "forced",
                 id="asymmetric-spectrum"),
    *[pytest.param(f"correlate --alpha 0.1 --beta 0.2 --format {fmt}", "singlet_correlation",
                   lambda *a, bad=bad: bad, message.format(bad), id=f"{fmt}-{bad!r}")
      for fmt, message in [("json", "Out of range float values are not JSON compliant: {!r}"),
                           ("csv", "non-finite value {!r}")]
      for bad in (math.nan, math.inf, -math.inf)],
]


class TestInputBoundary:
    @pytest.mark.parametrize("words, argv, fragment", USAGE_ERRORS,
                             ids=[argv or "(empty)" for _, argv, _ in USAGE_ERRORS])
    def test_usage_error_exits_2(self, capsys, monkeypatch, words, argv, fragment):
        for name in WORK:
            monkeypatch.setattr(cli, name, fails_with(AssertionError(f"{name} ran before the flags were settled")))
        with pytest.raises(SystemExit) as err:
            cli.main(argv_of(argv))
        captured = capsys.readouterr()
        prog = " ".join(["chshlab", *words.split()])
        assert err.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"usage: {prog} [-h] ")
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"{prog}: error: ") and fragment in last

    @pytest.mark.parametrize("argv, name, stand_in, message", NUMERICAL_FAILURES)
    def test_numerical_failure_exits_4(self, capsys, monkeypatch, argv, name, stand_in, message):
        monkeypatch.setattr(cli, name, stand_in)
        code = cli.main(argv_of(argv))
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"chshlab: numerical failure: {message}\n"

    def test_two_trials_report_finite_stderr(self, capsys):
        code, payload = run_json(capsys, ["simulate", *MAXV, "--trials", "2", "--seed", "3"])
        assert code == 0
        assert all(math.isfinite(r["stderr"]) for r in payload["rows"])

    def test_correlate_uses_the_pair_correlation_kernel(self, capsys):
        from chshlab import kernels

        _, payload = run_json(capsys, ["correlate", "--alpha", "0.123", "--beta", "1.7"])
        assert payload["rows"][0]["correlation_analytic"] == float(kernels.pair_correlation(0.123, 1.7))

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

    def test_closed_stdout_pipe_ends_the_program_quietly(self):
        # Run as a program, as a shell pipeline would; the read end is
        # closed before the child starts, so its first write hits EPIPE.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "chshlab.cli", "spectrum", *MAXV],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == -signal.SIGPIPE
        assert proc.stderr == b""

    @pytest.mark.parametrize(
        "target",
        [
            "{tmp}/missing/dir/report.csv",
            "{tmp}",
            "{tmp}/nul\0byte",
            # As a shell's `> ""` fails, an empty --out path does not mean stdout.
            "",
            # Opening succeeds; the first write fails.
            pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                               reason="needs a device that fails every write")),
        ],
        ids=["missing-dir", "directory", "nul-byte", "empty", "dev-full"],
    )
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        code = cli.main(["correlate", "--alpha", "0", "--beta", "0", "--out", target.format(tmp=tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("chshlab: cannot write --out: ")
        assert captured.err.count("\n") == 1

    def test_unwritable_out_fails_before_the_run(self, capsys, monkeypatch, tmp_path):
        def unreachable(*a, **k):
            raise AssertionError("estimator ran before --out was opened")

        monkeypatch.setattr(cli, "product_estimate", unreachable)
        argv = ["simulate", *MAXV, "--trials", "20000000", "--out", str(tmp_path / "missing" / "x.csv")]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("chshlab: cannot write --out: ")


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
# makes a slow run) or "foreign" (the subcommand does not take it). A
# subcommand takes --degrees exactly when it takes an angle flag.
# `constrained eval` appears twice: it takes the four angles or --q.
ANGLE_FLAGS = ("--alpha1", "--alpha2", "--beta1", "--beta2")
ANGLES = [(flag, "required") for flag in ANGLE_FLAGS]
NO_ANGLES = [(flag, "foreign") for flag in (*ANGLE_FLAGS, "--q")]
SCAN = [("--resolution", "pinned"), ("--restarts", "pinned"), ("--bound", "optional"), ("--seed", "optional")]
NO_SCAN = [(flag, "foreign") for flag, _ in SCAN]
SUBCOMMAND_FLAGS = [
    (("correlate",), [("--alpha", "required"), ("--beta", "required")]),
    (("chsh",), [("--mode", "required"), ("--model", "optional"), *ANGLES,
                 ("--trials", "pinned"), ("--seed", "optional")]),
    (("constrained", "eval"), [*ANGLES, ("--q", "foreign"), *NO_SCAN]),
    (("constrained", "eval"), [("--q", "required"), *NO_ANGLES[:4], *NO_SCAN]),
    (("constrained", "scan"), [*SCAN, *NO_ANGLES]),
    (("spectrum",), [*ANGLES, ("--seed", "foreign")]),
    (("simulate",), [*ANGLES, ("--trials", "pinned"), ("--seed", "optional")]),
    (("scan",), [("--objective", "optional"), *SCAN, *NO_ANGLES]),
]


@st.composite
def fuzz_argv(draw):
    """(argv, bad): a subcommand with valid flags, then up to two flags broken.

    ``bad`` is true when a flag ends with an invalid value or the subcommand
    does not take it, which must be a usage error.
    """
    head, flags = draw(st.sampled_from(SUBCOMMAND_FLAGS))
    flags = flags + [("--format", "optional")]
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
        if not any(flag.startswith("--alpha") and kind != "foreign" for flag, kind in flags):
            bad.add("--degrees")
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


def _parse_outcome(parse, argv):
    """vars() of the namespace, or the SystemExit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseRoutes:
    """cli._parse sends a command's flags to its own parser; parse_args must agree."""

    CORRELATE = ["correlate", "--alpha", "0.3", "--beta", "0.1"]
    Q = ["constrained", "eval", "--q=0,0,0,0"]
    EDGES = [
        [],
        ["bogus"],
        ["--bogus"],
        ["-h"],
        ["--version"],
        ["--=x"],
        ["--", "correlate"],
        ["constrained"],
        ["constrained", "--q=0,0,0,0"],
        ["constrained", "bogus"],
        ["constrained", "-h"],
        ["constrained", "eval"],
        CORRELATE,
        CORRELATE + ["--=x"],
        Q + ["--=x"],
        CORRELATE + ["--=x", "--bogus"],
        ["scan", "--", "--=x"],
        CORRELATE + ["--", "x"],
        Q + ["--", "x"],
        ["chsh", "--"],
        CORRELATE + ["--bogus"],
        Q + ["--bogus", "x", "--seed", "3"],
        CORRELATE + ["--version"],
        Q + ["--version"],
        CORRELATE + ["-h"],
        Q + ["-h"],
        ["constrained", "scan", "--help"],
        ["chsh", "--mode", "quantum", *MAXV, "--tri", "5", "--form", "json"],
        ["constrained", "scan", "--res", "4", "--rest=0", "--form=json"],
        ["scan", "--objective=eight_variable_sum", "--form", "xml"],
        ["spectrum", *MAXV, "--out"],
    ]

    @staticmethod
    def assert_routes_agree(argv):
        parser = cli.build_parser()
        with mock.patch.object(cli, "_parser", lambda: parser):
            direct = _parse_outcome(cli._parse, argv)
        assert direct == _parse_outcome(parser.parse_args, argv), argv

    @pytest.mark.parametrize("argv", EDGES, ids=lambda argv: " ".join(argv) or "(empty)")
    def test_edge_argvs(self, argv):
        self.assert_routes_agree(argv)

    @settings(max_examples=200, deadline=None)
    @given(fuzz_argv())
    def test_fuzz_argvs(self, case):
        self.assert_routes_agree(case[0])

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["chshlab", *self.Q, "--format", "json"])
        assert _parse_outcome(lambda _: cli._parse(None), []) == _parse_outcome(cli._parser().parse_args, sys.argv[1:])

    def test_each_command_is_parsed_by_its_own_parser(self):
        parser = cli.build_parser()
        assert sorted(parser.commands) == [
            ("chsh",), ("constrained", "eval"), ("constrained", "scan"),
            ("correlate",), ("scan",), ("simulate",), ("spectrum",),
        ]
        for words, command in parser.commands.items():
            assert command.prog == " ".join(("chshlab", *words))


# Strings that look like the structure of the indented JSON layout.
AWKWARD_TEXT = ["}", "},\n      {", '"},\n      {"', '"quoted"', "back\\slash\\", "new\nline\r\t",
                "λ → ψ⁻ 😀", "", " ", "\x00\x1f\x7f", "[1, {2}]"]
SCALARS = [None, True, False, 0, -7, 2**70, 0.0, -0.0, 1e-300, 5e-324, -1.7976931348623157e308,
           0.1, 2.0 * math.sqrt(2.0), *AWKWARD_TEXT]


class TestJsonRendering:
    """_render(..., "json") is byte for byte json.dumps(doc, indent=2, allow_nan=False)."""

    CONFIG = {"version": "0.1.0", "subcommand": "constrained", "action": "eval",
              "q": [0.5, -0.2, 1.0, -1.0], "format": "json", "out": None}

    @staticmethod
    def expected(config, columns, rows, status):
        blank = dict.fromkeys(columns)
        doc = {"config": config, "rows": [{**blank, **row} for row in rows], "status": status}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def assert_identical(self, config, columns, rows, status="ok"):
        expected = self.expected(config, columns, rows, status)
        assert cli._render(config, columns, rows, status, "json") == expected

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 17])
    def test_row_counts(self, n_rows):
        columns = cli.CONSTRAINED_COLUMNS
        rows = [{"kind": "cell", "k1": 1, "l1": -1, "probability": i / 16} for i in range(n_rows)]
        self.assert_identical(self.CONFIG, columns, rows)

    def test_every_scalar_type_in_a_row(self):
        columns = tuple(f"c{i}" for i in range(len(SCALARS)))
        rows = [dict(zip(columns, SCALARS)), dict(zip(columns, reversed(SCALARS))), {}]
        self.assert_identical(self.CONFIG, columns, rows)

    @pytest.mark.parametrize("text", AWKWARD_TEXT)
    def test_awkward_strings_in_rows_columns_and_config(self, text):
        columns = ("kind", text + "!", "value")
        rows = [{"kind": text, "value": 1.5}, {"kind": "summary", text + "!": text}, {"value": text}]
        for out in (text, "dir/" + text + ".json", None):
            self.assert_identical({**self.CONFIG, "out": out, text + "?": [text, 0.25]}, columns, rows, text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(), min_size=1, max_size=4, unique=True),
        st.lists(st.lists(st.one_of(st.none(), st.booleans(), st.integers(),
                                    st.floats(allow_nan=False, allow_infinity=False), st.text()),
                          max_size=4), max_size=4),
    )
    def test_drawn_rows(self, columns, values):
        rows = [dict(zip(columns, row)) for row in values]
        self.assert_identical(self.CONFIG, tuple(columns), rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["row", "config"])
    def test_non_finite_value_raises_the_indent_encoder_message(self, bad, where):
        config = {**self.CONFIG, "bound": bad} if where == "config" else self.CONFIG
        rows = [{"kind": "summary", "value": 1.0}, {"kind": "summary", "value": bad if where == "row" else 2.0}]
        with pytest.raises(ValueError) as expected:
            self.expected(config, ("kind", "value"), rows, "ok")
        with pytest.raises(ValueError) as rendered:
            cli._render(config, ("kind", "value"), rows, "ok", "json")
        assert str(rendered.value) == str(expected.value)
        assert str(rendered.value).endswith(f"not JSON compliant: {bad!r}")
