"""Command-line interface: every computation as a reproducible subcommand.

Subcommands
    correlate    analytic vs matrix-computed pair correlation and joint law
    chsh         CHSH estimates (same-lambda / independent / quantum modes)
    constrained  the conditioned four-variable table and expectations
    spectrum     eigenstructure and outcome law of the CHSH observable
    simulate     Monte Carlo pair and observable sampling vs analytic values
    scan         bound verification by lattice scan plus refinement

Angles are radians unless --degrees is given; output always echoes radians.
Angle flags must be finite with |value| <= 1e6 in their own unit: a larger
float angle keeps too little phase for the independent routes to agree.
Every output embeds the package version and the fully resolved run
configuration, so re-running the printed configuration reproduces the
output byte for byte. CSV output carries the same envelope in '#' comment
lines above the header row; numeric CSV fields use 17 significant digits.

Exit codes: 0 success (including status rows such as degenerate
conditioning), 2 usage error (including an unwritable --out path), 3
internal deterministic-bound violation, 4 numerical failure (any library
error once the flags are validated, including a NaN or infinite output
value, which is never written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__, kernels
from .chsh_operator import (
    AsymmetricSpectrumError,
    DegenerateSpectrumError,
    build_t,
    singlet_overlaps,
    t_distribution,
    t_estimate,
    t_mean,
    t_spectrum,
)
from .constrained import (
    CELL_ORDER,
    CorrelationQuad,
    DegenerateConditioningError,
    build_constrained_from_quad,
    constrained_expectation_bruteforce,
    constrained_expectation_closed,
    correlation_quad,
    quantum_eight_variable_sum,
)
from .lhv import (
    AngleConfig,
    angle_pairs,
    chsh_independent,
    chsh_same_lambda,
    get_model,
    quantum_chsh_independent,
)
from .linalg import EigenConvergenceError
from .quantum import joint_distribution, product_estimate, singlet_correlation, singlet_state
from .scan import MAX_RESOLUTION, OBJECTIVES, verify_bound
from .seeding import component_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_NUMERICAL = 4

SQRT8 = 2.0 * math.sqrt(2.0)

# Largest |angle| accepted by the angle flags, in the flag's own unit.
MAX_ANGLE = 1e6

# Output columns of each subcommand, in CSV header and JSON key order. A row
# lists only the values it has; the other columns are empty (null in JSON).
CORRELATE_COLUMNS = (
    "alpha", "beta", "correlation_analytic", "correlation_matrix", "p_pp", "p_pm", "p_mp", "p_mm",
)
CHSH_COLUMNS = ("mode", "model", "estimate", "stderr", "trials", "bound_lo", "bound_hi", "within_bound")
CONSTRAINED_COLUMNS = (
    "kind", "k1", "l1", "k4", "l4", "probability", "q1", "q2", "q3", "q4",
    "expectation_closed", "expectation_bruteforce", "eight_variable_sum", "normalizer",
)
SPECTRUM_COLUMNS = (
    "kind", "index", "eigenvalue", "overlap_with_singlet", "t0", "t1",
    "mean_formula", "mean_matrix", "mean_distribution", "weight_plus", "weight_minus",
)
SIMULATE_COLUMNS = (
    "kind", "pair_index", "alpha", "beta", "empirical_mean", "analytic_mean", "stderr", "trials", "check",
)
SCAN_COLUMNS = (
    "kind", "objective", "resolution", "restarts", "n_evaluated", "n_skipped", "n_refinements",
    "bound", "max_value", "min_value", "n_violations", "alpha1", "alpha2", "beta1", "beta2", "value",
)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _render(config: dict, columns: tuple, rows: list[dict], status: str, fmt: str) -> str:
    if fmt == "json":
        blank = dict.fromkeys(columns)
        doc = {"config": config, "rows": [{**blank, **row} for row in rows], "status": status}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, allow_nan=False) + "\n")
    buf.write("# status: " + status + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(k)) for k in columns])
    return buf.getvalue()


def _emit(args, subcommand: str, echo: dict, columns: tuple, rows: list[dict], status: str) -> None:
    """Write the rows under the run configuration: version, subcommand, echo, format, out."""
    config = {"version": __version__, "subcommand": subcommand,
              **echo, "format": args.format, "out": args.out}
    text = _render(config, columns, rows, status, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _angle(text: str) -> float:
    value = _finite(text)
    if abs(value) > MAX_ANGLE:
        raise argparse.ArgumentTypeError(f"|angle| must be at most {MAX_ANGLE:g}, got {text!r}")
    return value


def _int_range(lo: int, hi: float = math.inf):
    """Argparse type accepting an integer in [lo, hi]."""

    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}]")
        return value

    return integer


def _quad(text: str) -> CorrelationQuad:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 4:
        raise argparse.ArgumentTypeError("expects 4 comma-separated reals")
    if not all(-1.0 <= q <= 1.0 for q in values):
        raise argparse.ArgumentTypeError("entries must be finite and lie in [-1, 1]")
    return CorrelationQuad(*values)


def _angles(values, degrees: bool) -> list[float]:
    return [math.radians(v) if degrees else v for v in values]


def _full_angles(args, parser) -> AngleConfig:
    values = (args.alpha1, args.alpha2, args.beta1, args.beta2)
    if None in values:
        parser.error("--alpha1, --alpha2, --beta1 and --beta2 are all required here")
    return AngleConfig(*_angles(values, args.degrees))


def cmd_correlate(args, parser) -> int:
    if args.alpha is None or args.beta is None:
        parser.error("--alpha and --beta are required")
    alpha, beta = _angles((args.alpha, args.beta), args.degrees)
    dist = joint_distribution(alpha, beta)
    row = {
        "alpha": alpha,
        "beta": beta,
        "correlation_analytic": float(kernels.pair_correlation(alpha, beta)),
        "correlation_matrix": singlet_correlation(alpha, beta),
        "p_pp": dist.probability(1, 1),
        "p_pm": dist.probability(1, -1),
        "p_mp": dist.probability(-1, 1),
        "p_mm": dist.probability(-1, -1),
    }
    _emit(args, "correlate", {"alpha": alpha, "beta": beta}, CORRELATE_COLUMNS, [row], "ok")
    return EXIT_OK


def cmd_chsh(args, parser) -> int:
    config = _full_angles(args, parser)
    mode = args.mode
    model_name = args.model
    if mode in ("same-lambda", "independent") and model_name is None:
        parser.error(f"--model is required for mode {mode}")
    if mode == "quantum" and model_name is not None:
        parser.error("--model is not accepted in quantum mode")
    if mode == "same-lambda" and model_name == "quantum-mimic":
        parser.error("same-lambda mode requires a local-hidden-variable model, not quantum-mimic")

    rng = component_stream(args.seed, f"chsh/{mode}")
    if mode == "same-lambda":
        est = chsh_same_lambda(get_model(model_name), config, args.trials, rng)
        lo, hi, deterministic = -2.0, 2.0, True
    elif mode == "independent":
        est = chsh_independent(get_model(model_name), config, args.trials, rng)
        lo, hi, deterministic = -4.0, 4.0, True
    else:
        est = quantum_chsh_independent(config, args.trials, rng)
        lo, hi, deterministic = -SQRT8, SQRT8, False

    # Statistical allowance for the quantum bound: it constrains the
    # expectation, not the finite-sample mean.
    slack = 0.0 if deterministic else 4.0 * est.stderr
    within = lo - slack <= est.mean <= hi + slack
    row = {
        "mode": mode,
        "model": model_name,
        "estimate": est.mean,
        "stderr": est.stderr,
        "trials": est.n_samples,
        "bound_lo": lo,
        "bound_hi": hi,
        "within_bound": within,
    }
    echo = {"mode": mode, "model": model_name, **vars(config), "trials": args.trials, "seed": args.seed}
    _emit(args, "chsh", echo, CHSH_COLUMNS, [row], "ok" if within else "bound-violation")
    return EXIT_OK if within else EXIT_BOUND_VIOLATION


def _constrained_rows(quad: CorrelationQuad) -> tuple[list[dict], str]:
    summary = {"kind": "summary", **vars(quad), "eight_variable_sum": quantum_eight_variable_sum(quad)}
    try:
        dist = build_constrained_from_quad(quad)
    except DegenerateConditioningError:
        return [summary], "degenerate-conditioning"
    rows = [
        {"kind": "cell", "k1": k1, "l1": l1, "k4": k4, "l4": l4,
         "probability": dist.probability(k1, l1, k4, l4)}
        for k1, l1, k4, l4 in CELL_ORDER
    ]
    summary.update(
        expectation_closed=constrained_expectation_closed(quad),
        expectation_bruteforce=constrained_expectation_bruteforce(dist),
        normalizer=dist.normalizer,
    )
    return rows + [summary], "ok"


def cmd_constrained(args, parser) -> int:
    if args.action == "scan":
        return _run_scan(args, parser)
    if args.q is not None:
        quad, echo = args.q, {"q": list(args.q.astuple())}
    else:
        config = _full_angles(args, parser)
        quad, echo = correlation_quad(config), vars(config)
    rows, status = _constrained_rows(quad)
    _emit(args, "constrained", {"action": "eval", **echo}, CONSTRAINED_COLUMNS, rows, status)
    return EXIT_OK


def cmd_spectrum(args, parser) -> int:
    config = _full_angles(args, parser)
    op = build_t(config)
    summary = t_spectrum(op)
    overlaps = singlet_overlaps(summary)
    rows = [
        {"kind": "eigenvalue", "index": i, "eigenvalue": float(value), "overlap_with_singlet": float(overlap)}
        for i, (value, overlap) in enumerate(zip(summary.eigen.eigenvalues, overlaps))
    ]
    psi = singlet_state()
    summary_row = {
        "kind": "summary",
        "t0": summary.t0,
        "t1": summary.t1,
        "mean_formula": summary.mean_value,
        "mean_matrix": float((psi.conj() @ op.matrix @ psi).real),
    }
    status = "ok"
    try:
        dist = t_distribution(config)
        summary_row.update(
            mean_distribution=dist.t0 * dist.weight_plus - dist.t0 * dist.weight_minus,
            weight_plus=dist.weight_plus,
            weight_minus=dist.weight_minus,
        )
    except DegenerateSpectrumError:
        status = "t0-zero"
    rows.append(summary_row)
    _emit(args, "spectrum", vars(config), SPECTRUM_COLUMNS, rows, status)
    return EXIT_OK


def _simulate_row(est, analytic: float, **fields) -> dict:
    check = "PASS" if abs(est.mean - analytic) <= 4.0 * est.stderr + 1e-15 else "FAIL"
    return {
        **fields,
        "empirical_mean": est.mean,
        "analytic_mean": analytic,
        "stderr": est.stderr,
        "trials": est.n_samples,
        "check": check,
    }


def cmd_simulate(args, parser) -> int:
    config = _full_angles(args, parser)
    n = args.trials
    rows = []
    status = "ok"

    rng_pairs = component_stream(args.seed, "simulate/pairs")
    for index, (alpha, beta) in enumerate(angle_pairs(config), start=1):
        dist = joint_distribution(alpha, beta)
        est = product_estimate(dist, n, rng_pairs)
        fields = {"kind": "pair", "pair_index": index, "alpha": alpha, "beta": beta}
        rows.append(_simulate_row(est, dist.product_mean(), **fields))

    rng_t = component_stream(args.seed, "simulate/t-observable")
    try:
        est = t_estimate(config, n, rng_t)
        rows.append(_simulate_row(est, t_mean(config), kind="t-observable"))
    except DegenerateSpectrumError:
        status = "t0-zero"

    echo = {**vars(config), "trials": n, "seed": args.seed}
    _emit(args, "simulate", echo, SIMULATE_COLUMNS, rows, status)
    return EXIT_OK


def _run_scan(args, parser) -> int:
    name = args.objective
    bound = args.bound if args.bound is not None else OBJECTIVES[name].default_bound
    report = verify_bound(
        name,
        bound=bound,
        resolution=args.resolution,
        n_random_restarts=args.restarts,
        seed=args.seed,
    )
    summary = {
        "kind": "summary",
        "objective": report.objective_name,
        "resolution": report.grid_resolution,
        "restarts": args.restarts,
        "n_evaluated": report.n_evaluated,
        "n_skipped": report.n_skipped,
        "n_refinements": report.n_refinements,
        "bound": report.bound,
        "max_value": report.max_value,
        "min_value": report.min_value,
        "n_violations": report.n_violations,
        **vars(report.argmax),
    }
    violations = [
        {"kind": "violation", **vars(config), "value": value} for config, value in report.violations
    ]
    status = "ok" if report.n_violations == 0 else "violations"
    echo = {"objective": name, "bound": bound, "resolution": args.resolution,
            "restarts": args.restarts, "seed": args.seed}
    _emit(args, "scan", echo, SCAN_COLUMNS, [summary, *violations], status)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--degrees", action="store_true", help="interpret angle flags as degrees")


def _add_four_angles(parser: argparse.ArgumentParser) -> None:
    for flag in ("--alpha1", "--alpha2", "--beta1", "--beta2"):
        parser.add_argument(flag, type=_angle)


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=_int_range(2, MAX_RESOLUTION), default=24)
    parser.add_argument("--restarts", type=_int_range(0), default=20)
    parser.add_argument("--bound", type=_finite)
    parser.add_argument("--seed", type=_int_range(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chshlab", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"chshlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    trials, seed = _int_range(2), _int_range(0)

    p = sub.add_parser("correlate", help="pair correlation and joint outcome law")
    p.add_argument("--alpha", type=_angle)
    p.add_argument("--beta", type=_angle)
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("chsh", help="CHSH estimate in one of the three modes")
    p.add_argument("--mode", choices=["same-lambda", "independent", "quantum"], required=True)
    p.add_argument("--model", choices=["sign", "quantum-mimic"], help="LHV model name")
    _add_four_angles(p)
    p.add_argument("--trials", type=trials, default=100_000)
    p.add_argument("--seed", type=seed, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("constrained", help="conditioned four-variable table and expectations")
    p.add_argument("action", choices=["eval", "scan"])
    _add_four_angles(p)
    p.add_argument("--q", type=_quad, help="4 comma-separated correlations, bypassing angles")
    _add_scan_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_constrained, objective="constrained_e4")

    p = sub.add_parser("spectrum", help="eigenstructure of the CHSH observable")
    _add_four_angles(p)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="Monte Carlo sampling vs analytic values")
    _add_four_angles(p)
    p.add_argument("--trials", type=trials, default=100_000)
    p.add_argument("--seed", type=seed, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="bound verification for a named objective")
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default="constrained_e4")
    _add_scan_flags(p)
    _add_common(p)
    p.set_defaults(func=_run_scan)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building it costs more than a small command's
    # work, and parse_args keeps no state between calls (each call fills a
    # fresh Namespace).
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (AsymmetricSpectrumError, EigenConvergenceError, ValueError) as exc:
        # Flags are validated before any computation, so a ValueError here is
        # a library failure: degenerate conditioning or spectrum, a
        # non-Hermitian matrix, invalid model responses or a non-finite output.
        print(f"chshlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # Only the --out write touches the file system.
        if not args.out:
            raise
        print(f"chshlab: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
