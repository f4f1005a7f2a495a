"""Output oracle: strict parsing plus checks against the benchmark's own values.

Every expected value here is computed by the benchmark, not by chshlab:
the singlet correlation -cos 2(a - b), the sign-model sawtooth, the signed
sum q1 + q2 + q3 - q4, the closed form of the conditioned expectation E4,
the 16-cell table, and t0 = 2 sqrt(1 - sin 2(a1 - a2) sin 2(b1 - b2)).

Tolerances:
  * analytic values                 1e-12 absolute (scaled by 1 / (1 + q1 q2 q3 q4) for E4)
  * matrix-route values (spectrum)  1e-9 absolute
  * scan extrema                    1e-9 absolute: argmax is never compared
                                    byte for byte, and minima may move by a
                                    few ulp when the lattice code changes
  * Monte Carlo means               Bernstein bound at failure probability
                                    1e-9: about 6.5 analytic standard errors
                                    plus a range term for near-deterministic
                                    estimators
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import product

from workloads import DEGENERATE_Q, Op

SQRT8 = 2.0 * math.sqrt(2.0)
ANALYTIC_TOL = 1e-12
MATRIX_TOL = 1e-9
SCAN_TOL = 1e-9
LOG_INV_FAILURE = math.log(2.0 / 1e-9)
CELLS = tuple(product((1, -1), repeat=4))
DEFAULT_BOUND = {"constrained_e4": 2.0, "eight_variable_sum": SQRT8, "t_validity_margin": 0.0}
_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


class OracleError(ValueError):
    """The output is malformed or disagrees with the expected value."""


# ---------------------------------------------------------------- parsing


def _reject_constant(token: str):
    raise OracleError(f"non-finite JSON token {token}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _csv_field(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _NUMBER.fullmatch(text):
        return int(text) if text.lstrip("-").isdigit() else float(text)
    if text.lower().lstrip("+-") in ("nan", "inf", "infinity"):
        raise OracleError(f"non-finite CSV field {text!r}")
    return text


def parse(text: str, fmt: str) -> dict:
    """Parse one CLI output into {"config", "status", "rows"}; strict on NaN/inf."""
    if fmt == "json":
        doc = _strict_json(text)
        if set(doc) != {"config", "rows", "status"}:
            raise OracleError(f"unexpected JSON keys {sorted(doc)}")
        return doc
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config: ") or not lines[1].startswith("# status: "):
        raise OracleError("CSV output lacks the '# config' / '# status' envelope")
    config = _strict_json(lines[0][len("# config: "):])
    status = lines[1][len("# status: "):]
    table = list(csv.reader(io.StringIO("\n".join(lines[2:]) + "\n")))
    rows = []
    if table:
        header = table[0]
        for record in table[1:]:
            if len(record) != len(header):
                raise OracleError("ragged CSV row")
            rows.append({k: _csv_field(v) for k, v in zip(header, record)})
    return {"config": config, "status": status, "rows": rows}


# ---------------------------------------------------- the benchmark's values


def corr(alpha: float, beta: float) -> float:
    return -math.cos(2.0 * (alpha - beta))


def sawtooth(alpha: float, beta: float) -> float:
    """Sign-model correlation -1 + 4 d / pi, d = |alpha - beta| folded into [0, pi/2]."""
    d = (alpha - beta) % math.pi
    return -1.0 + 4.0 * min(d, math.pi - d) / math.pi


def pairs(cfg):
    a1, a2, b1, b2 = cfg
    return ((a1, b1), (a1, b2), (a2, b1), (a2, b2))


def quad(cfg) -> tuple[float, float, float, float]:
    return tuple(corr(a, b) for a, b in pairs(cfg))


def signed_sum(q) -> float:
    return q[0] + q[1] + q[2] - q[3]


def e4_closed(q) -> float:
    q1, q2, q3, q4 = q
    num = q1 + q2 + q3 - q4 + q2 * q3 * q4 + q1 * q3 * q4 + q1 * q2 * q4 - q1 * q2 * q3
    return num / (1.0 + q1 * q2 * q3 * q4)


def cell_table(q) -> list[float]:
    """Conditioned 16-cell probabilities in (k1, l1, k4, l4) product order."""
    q1, q2, q3, q4 = q

    def p(qn, k, l):
        return (1.0 + k * l * qn) / 4.0

    raw = [p(q1, k1, l1) * p(q2, k4, l1) * p(q3, k1, l4) * p(q4, k4, l4) for k1, l1, k4, l4 in CELLS]
    mass = sum(raw)
    return [w / mass for w in raw]


def t0(cfg) -> float:
    a1, a2, b1, b2 = cfg
    return 2.0 * math.sqrt(max(0.0, 1.0 - math.sin(2.0 * (a1 - a2)) * math.sin(2.0 * (b1 - b2))))


def mc_tolerance(n: int, variance: float, half_range: float) -> float:
    """Deviation of an n-sample mean that Bernstein's inequality bounds at 1e-9.

    Per-trial values lie in [-half_range, half_range], so each deviates
    from its mean by at most 2 half_range.
    """
    m = 2.0 * half_range
    a = 2.0 * m * LOG_INV_FAILURE / 3.0
    return (a + math.sqrt(a * a + 8.0 * n * max(variance, 0.0) * LOG_INV_FAILURE)) / (2.0 * n)


# ----------------------------------------------------------------- checks


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def close(self, what: str, got, want: float, tol: float) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not abs(got - want) <= tol:
            self.errors.append(f"{what}: got {got!r}, want {want!r} +- {tol:.3g}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.errors.append(what)


def _check_correlate(c: _Checker, op: Op, doc: dict) -> int:
    alpha, beta = op.params["alpha"], op.params["beta"]
    (row,) = doc["rows"]
    want = corr(alpha, beta)
    c.equal("alpha echo", row["alpha"], alpha)
    c.equal("beta echo", row["beta"], beta)
    c.close("correlation_analytic", row["correlation_analytic"], want, ANALYTIC_TOL)
    c.close("correlation_matrix", row["correlation_matrix"], want, ANALYTIC_TOL)
    for key, sign in (("p_pp", 1), ("p_pm", -1), ("p_mp", -1), ("p_mm", 1)):
        c.close(key, row[key], (1.0 + sign * want) / 4.0, ANALYTIC_TOL)
    c.equal("status", doc["status"], "ok")
    return 0


def _check_chsh(c: _Checker, op: Op, doc: dict) -> int:
    cfg, n = op.params["cfg"], op.params["trials"]
    (row,) = doc["rows"]
    if op.kind == "chsh_same-lambda_sign":
        want = sum(s * sawtooth(a, b) for s, (a, b) in zip((1, 1, 1, -1), pairs(cfg)))
        variance, half_range, lo, hi = 4.0 - want * want, 2.0, -2.0, 2.0
    else:
        means = [sawtooth(a, b) for a, b in pairs(cfg)] if op.kind == "chsh_independent_sign" else list(quad(cfg))
        want = signed_sum(means)
        variance, half_range = sum(1.0 - m * m for m in means), 4.0
        lo, hi = (-SQRT8, SQRT8) if op.kind == "chsh_quantum" else (-4.0, 4.0)
    est, se = row["estimate"], row["stderr"]
    c.close("estimate", est, want, mc_tolerance(n, variance, half_range))
    c.true(f"stderr {se!r} not finite and >= 0", isinstance(se, (int, float)) and 0.0 <= se < math.inf)
    c.equal("trials", row["trials"], n)
    c.equal("bounds", (row["bound_lo"], row["bound_hi"]), (lo, hi))
    # The quantum bound holds for the expectation, so the CLI allows 4
    # standard errors; the LHV bounds hold for every sample mean.
    slack = 4.0 * se if op.kind == "chsh_quantum" else 0.0
    within = lo - slack <= est <= hi + slack
    c.true(f"LHV estimate {est!r} outside [{lo}, {hi}]", within or op.kind == "chsh_quantum")
    c.equal("within_bound", row["within_bound"], within)
    c.equal("status", doc["status"], "ok" if within else "bound-violation")
    return 0 if within else 3


def _check_simulate(c: _Checker, op: Op, doc: dict) -> int:
    cfg, n = op.params["cfg"], op.params["trials"]
    rows = doc["rows"]
    degenerate = t0(cfg) <= 1e-9
    c.equal("status", doc["status"], "t0-zero" if degenerate else "ok")
    c.equal("row kinds", [r["kind"] for r in rows], ["pair"] * 4 + ([] if degenerate else ["t-observable"]))
    expected = [(corr(a, b), 1.0 - corr(a, b) ** 2, 1.0) for a, b in pairs(cfg)]
    if not degenerate:
        e, t = signed_sum(quad(cfg)), t0(cfg)
        expected.append((e, t * t - e * e, t))
    for i, (row, (want, variance, half_range)) in enumerate(zip(rows, expected)):
        if row["kind"] == "pair":
            c.equal(f"row {i} pair_index", row["pair_index"], i + 1)
            c.equal(f"row {i} angles", (row["alpha"], row["beta"]), pairs(cfg)[i])
        c.close(f"row {i} analytic_mean", row["analytic_mean"], want, ANALYTIC_TOL)
        c.close(f"row {i} empirical_mean", row["empirical_mean"], want, mc_tolerance(n, variance, half_range))
        c.equal(f"row {i} trials", row["trials"], n)
        # The CLI's own PASS/FAIL column must follow from the numbers it prints.
        passed = abs(row["empirical_mean"] - row["analytic_mean"]) <= 4.0 * row["stderr"] + 1e-15
        c.equal(f"row {i} check", row["check"], "PASS" if passed else "FAIL")
    return 0


def _check_constrained(c: _Checker, op: Op, doc: dict) -> int:
    q = op.params["q"] if "q" in op.params else quad(op.params["cfg"])
    rows = doc["rows"]
    summary = rows[-1]
    c.equal("summary kind", summary["kind"], "summary")
    for i in range(4):
        c.close(f"q{i + 1}", summary[f"q{i + 1}"], q[i], ANALYTIC_TOL)
    c.close("eight_variable_sum", summary["eight_variable_sum"], signed_sum(q), 4 * ANALYTIC_TOL)
    den = 1.0 + q[0] * q[1] * q[2] * q[3]
    if op.params.get("q") == DEGENERATE_Q:
        c.equal("status", doc["status"], "degenerate-conditioning")
        c.equal("rows", len(rows), 1)
        c.equal("expectation_closed", summary["expectation_closed"], None)
        return 0
    c.equal("status", doc["status"], "ok")
    c.equal("cells", [(r["kind"], r["k1"], r["l1"], r["k4"], r["l4"]) for r in rows[:-1]],
            [("cell", *cell) for cell in CELLS])
    for cell, row, want in zip(CELLS, rows, cell_table(q)):
        c.close(f"P{cell}", row["probability"], want, ANALYTIC_TOL / den)
    e4, tol = e4_closed(q), ANALYTIC_TOL * (1.0 + 1.0 / den)
    c.close("expectation_closed", summary["expectation_closed"], e4, tol)
    c.close("expectation_bruteforce", summary["expectation_bruteforce"], e4, tol)
    c.close("normalizer", summary["normalizer"], den / 16.0, ANALYTIC_TOL)
    c.true(f"E4 {e4!r} outside [-2, 2]", abs(summary["expectation_closed"]) <= 2.0 + tol)
    return 0


def _check_spectrum(c: _Checker, op: Op, doc: dict) -> int:
    cfg = op.params["cfg"]
    rows = doc["rows"]
    eig, summary = rows[:4], rows[4]
    w = [r["eigenvalue"] for r in eig]
    want_t0, e = t0(cfg), signed_sum(quad(cfg))
    c.equal("eigen indices", [r["index"] for r in eig], [0, 1, 2, 3])
    c.true(f"eigenvalues {w} not ascending", w == sorted(w))
    c.close("w0 + w3", w[0] + w[3], 0.0, MATRIX_TOL)
    c.close("w1 + w2", w[1] + w[2], 0.0, MATRIX_TOL)
    c.close("|w| nearest t0", min(abs(abs(v) - want_t0) for v in w), 0.0, MATRIX_TOL)
    # tr T^2 = 16: each of the four signed terms squares to the identity and
    # the cross terms are traceless.
    c.close("sum of squared eigenvalues", sum(v * v for v in w), 16.0, MATRIX_TOL)
    c.close("singlet overlaps", sum(r["overlap_with_singlet"] ** 2 for r in eig), 1.0, MATRIX_TOL)
    c.close("t0", summary["t0"], want_t0, MATRIX_TOL)
    c.close("mean_formula", summary["mean_formula"], e, 4 * ANALYTIC_TOL)
    c.close("mean_matrix", summary["mean_matrix"], e, MATRIX_TOL)
    if want_t0 <= 1e-9:
        c.equal("status", doc["status"], "t0-zero")
        c.equal("weights", (summary["weight_plus"], summary["weight_minus"]), (None, None))
    else:
        c.equal("status", doc["status"], "ok")
        c.close("mean_distribution", summary["mean_distribution"], e, MATRIX_TOL)
        c.close("weight_plus", summary["weight_plus"], (1.0 + e / want_t0) / 2.0, MATRIX_TOL)
        c.close("weight_minus", summary["weight_minus"], (1.0 - e / want_t0) / 2.0, MATRIX_TOL)
    return 0


def _objective(name: str, cfg) -> float:
    q = quad(cfg)
    if name == "constrained_e4":
        return e4_closed(q)
    if name == "eight_variable_sum":
        return signed_sum(q)
    return t0(cfg) - abs(signed_sum(q))


# Known extrema over all angles; at resolutions divisible by 8 they are on-lattice.
EXTREMA = {"constrained_e4": (2.0, -2.0), "eight_variable_sum": (SQRT8, -SQRT8), "t_validity_margin": (SQRT8, 0.0)}


def _check_scan(c: _Checker, op: Op, doc: dict) -> int:
    name, res, restarts = op.params["objective"], op.params["resolution"], op.params["restarts"]
    c.equal("status", doc["status"], "ok")
    c.equal("rows", [r["kind"] for r in doc["rows"]], ["summary"])
    row = doc["rows"][0]
    c.equal("objective", row["objective"], name)
    c.equal("resolution", row["resolution"], res)
    c.equal("n_evaluated", row["n_evaluated"], res**4)
    c.equal("n_skipped", row["n_skipped"], 0)
    two_sided = name != "t_validity_margin"
    c.equal("n_refinements", row["n_refinements"], (5 + restarts) * (2 if two_sided else 1))
    c.close("bound", row["bound"], DEFAULT_BOUND[name], 0.0)
    c.equal("n_violations", row["n_violations"], 0)
    want_max, want_min = EXTREMA[name]
    c.close("max_value", row["max_value"], want_max, SCAN_TOL)
    c.close("min_value", row["min_value"], want_min, SCAN_TOL)
    argmax = (row["alpha1"], row["alpha2"], row["beta1"], row["beta2"])
    c.close("objective at argmax", _objective(name, argmax), row["max_value"], SCAN_TOL)
    return 0


CHECKS = {
    "correlate": _check_correlate,
    "chsh_same-lambda_sign": _check_chsh,
    "chsh_independent_sign": _check_chsh,
    "chsh_independent_quantum-mimic": _check_chsh,
    "chsh_quantum": _check_chsh,
    "simulate": _check_simulate,
    "constrained_eval": _check_constrained,
    "spectrum": _check_spectrum,
    "scan": _check_scan,
}


def check_parsed(op: Op, exit_code: int, doc: dict) -> list[str]:
    """Every way a parsed output and exit code disagree with ``op``; empty if correct."""
    c = _Checker()
    try:
        want_exit = CHECKS[op.kind](c, op, doc)
        c.equal("config subcommand", doc["config"].get("subcommand"), "scan" if op.kind == "scan" else op.argv[0])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    c.equal("exit code", exit_code, want_exit)
    return c.errors


def check(op: Op, exit_code: int, stdout: str) -> list[str]:
    """Every way ``stdout`` and ``exit_code`` disagree with ``op``; empty if correct."""
    try:
        doc = parse(stdout, op.argv[op.argv.index("--format") + 1])
    except (OracleError, ValueError, csv.Error) as exc:
        return [f"unparsable output: {exc}"]
    return check_parsed(op, exit_code, doc)
