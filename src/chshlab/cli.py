"""Command-line interface: every computation as a reproducible subcommand.

Subcommands
    correlate    analytic vs matrix-computed pair correlation and joint law
    chsh         CHSH estimates (same-lambda / independent / quantum modes)
    constrained  the conditioned four-variable table and expectations
    spectrum     eigenstructure and outcome law of the CHSH observable
    simulate     Monte Carlo pair and observable sampling vs analytic values
    scan         bound verification by lattice scan plus refinement

Angles are radians unless --degrees is given; output always echoes radians.
Every output embeds the package version and the fully resolved run
configuration, so re-running the printed configuration reproduces the
output byte for byte. CSV output carries the same envelope in '#' comment
lines above the header row; numeric CSV fields use 17 significant digits.

Exit codes: 0 success (including status rows such as degenerate
conditioning), 2 usage error, 3 internal deterministic-bound violation,
4 numerical failure (any library error once the flags are validated,
including a NaN or infinite output value, which is never written).
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
    build_constrained,
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


class NonFiniteOutputError(ValueError):
    """An output value is NaN or infinite, which strict JSON/CSV cannot carry."""


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


def _render(config: dict, rows: list[dict], status: str, fmt: str) -> str:
    if fmt == "json":
        doc = {"config": config, "rows": rows, "status": status}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, allow_nan=False) + "\n")
    buf.write("# status: " + status + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in header])
    return buf.getvalue()


def _emit(config: dict, rows: list[dict], status: str, fmt: str, out: str | None) -> None:
    try:
        text = _render(config, rows, status, fmt)
    except ValueError as exc:
        raise NonFiniteOutputError(str(exc)) from exc
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _angles(parser, values, degrees: bool) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        parser.error("angles must be finite")
    return [math.radians(v) if degrees else v for v in values]


def _trials(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
    return value


def _base_config(args, subcommand: str, **extra) -> dict:
    cfg = {"version": __version__, "subcommand": subcommand}
    cfg.update(extra)
    cfg["format"] = args.format
    cfg["out"] = args.out
    return cfg


def _full_angles(args, parser) -> AngleConfig:
    values = (args.alpha1, args.alpha2, args.beta1, args.beta2)
    if any(v is None for v in values):
        parser.error("--alpha1, --alpha2, --beta1 and --beta2 are all required here")
    return AngleConfig(*_angles(parser, values, args.degrees))


def cmd_correlate(args, parser) -> int:
    if args.alpha is None or args.beta is None:
        parser.error("--alpha and --beta are required")
    alpha, beta = _angles(parser, (args.alpha, args.beta), args.degrees)
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
    cfg = _base_config(args, "correlate", alpha=alpha, beta=beta)
    _emit(cfg, [row], "ok", args.format, args.out)
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
    cfg = _base_config(
        args,
        "chsh",
        mode=mode,
        model=model_name,
        alpha1=config.alpha1,
        alpha2=config.alpha2,
        beta1=config.beta1,
        beta2=config.beta2,
        trials=args.trials,
        seed=args.seed,
    )
    _emit(cfg, [row], "ok" if within else "bound-violation", args.format, args.out)
    return EXIT_OK if within else EXIT_BOUND_VIOLATION


def _constrained_rows(quad: CorrelationQuad) -> tuple[list[dict], str]:
    blank = {
        "kind": None,
        "k1": None,
        "l1": None,
        "k4": None,
        "l4": None,
        "probability": None,
        "q1": None,
        "q2": None,
        "q3": None,
        "q4": None,
        "expectation_closed": None,
        "expectation_bruteforce": None,
        "eight_variable_sum": None,
        "normalizer": None,
    }
    try:
        dist = build_constrained_from_quad(quad)
    except DegenerateConditioningError:
        row = dict(blank)
        row.update(
            kind="summary",
            q1=quad.q1,
            q2=quad.q2,
            q3=quad.q3,
            q4=quad.q4,
            eight_variable_sum=quantum_eight_variable_sum(quad),
        )
        return [row], "degenerate-conditioning"

    rows = []
    for cell in CELL_ORDER:
        row = dict(blank)
        row.update(
            kind="cell",
            k1=cell[0],
            l1=cell[1],
            k4=cell[2],
            l4=cell[3],
            probability=dist.probability(*cell),
        )
        rows.append(row)
    summary = dict(blank)
    summary.update(
        kind="summary",
        q1=quad.q1,
        q2=quad.q2,
        q3=quad.q3,
        q4=quad.q4,
        expectation_closed=constrained_expectation_closed(quad),
        expectation_bruteforce=constrained_expectation_bruteforce(dist),
        eight_variable_sum=quantum_eight_variable_sum(quad),
        normalizer=dist.normalizer,
    )
    rows.append(summary)
    return rows, "ok"


def cmd_constrained(args, parser) -> int:
    if args.action == "scan":
        return _run_scan(args, parser, objective="constrained_e4")

    if args.q is not None:
        parts = args.q.split(",")
        if len(parts) != 4:
            parser.error("--q expects 4 comma-separated reals")
        try:
            quad = CorrelationQuad(*(float(p) for p in parts))
        except ValueError:
            parser.error("--q expects 4 comma-separated reals")
        if not all(-1.0 <= q <= 1.0 for q in quad.astuple()):
            parser.error("--q entries must be finite and lie in [-1, 1]")
        cfg = _base_config(args, "constrained", action="eval", q=list(quad.astuple()))
    else:
        config = _full_angles(args, parser)
        quad = correlation_quad(config)
        cfg = _base_config(
            args,
            "constrained",
            action="eval",
            alpha1=config.alpha1,
            alpha2=config.alpha2,
            beta1=config.beta1,
            beta2=config.beta2,
        )
    rows, status = _constrained_rows(quad)
    _emit(cfg, rows, status, args.format, args.out)
    return EXIT_OK


def cmd_spectrum(args, parser) -> int:
    config = _full_angles(args, parser)
    op = build_t(config)
    summary = t_spectrum(op)
    overlaps = singlet_overlaps(summary)
    psi_mean = summary.mean_value

    rows = []
    for i, (value, overlap) in enumerate(zip(summary.eigen.eigenvalues, overlaps)):
        rows.append(
            {
                "kind": "eigenvalue",
                "index": i,
                "eigenvalue": float(value),
                "overlap_with_singlet": float(overlap),
                "t0": None,
                "t1": None,
                "mean_formula": None,
                "mean_matrix": None,
                "mean_distribution": None,
                "weight_plus": None,
                "weight_minus": None,
            }
        )
    psi = singlet_state()
    mean_matrix = float((psi.conj() @ op.matrix @ psi).real)
    status = "ok"
    try:
        dist = t_distribution(config)
        weight_plus, weight_minus = dist.weight_plus, dist.weight_minus
        mean_distribution = dist.t0 * dist.weight_plus - dist.t0 * dist.weight_minus
    except DegenerateSpectrumError:
        weight_plus = weight_minus = mean_distribution = None
        status = "t0-zero"
    summary_row = {
        "kind": "summary",
        "index": None,
        "eigenvalue": None,
        "overlap_with_singlet": None,
        "t0": summary.t0,
        "t1": summary.t1,
        "mean_formula": psi_mean,
        "mean_matrix": mean_matrix,
        "mean_distribution": mean_distribution,
        "weight_plus": weight_plus,
        "weight_minus": weight_minus,
    }
    rows.append(summary_row)
    cfg = _base_config(
        args,
        "spectrum",
        alpha1=config.alpha1,
        alpha2=config.alpha2,
        beta1=config.beta1,
        beta2=config.beta2,
        seed=args.seed,
    )
    _emit(cfg, rows, status, args.format, args.out)
    return EXIT_OK


def _simulate_row(kind: str, index, alpha, beta, est, analytic: float) -> dict:
    return {
        "kind": kind,
        "pair_index": index,
        "alpha": alpha,
        "beta": beta,
        "empirical_mean": est.mean,
        "analytic_mean": analytic,
        "stderr": est.stderr,
        "trials": est.n_samples,
        "check": "PASS" if abs(est.mean - analytic) <= 4.0 * est.stderr + 1e-15 else "FAIL",
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
        rows.append(_simulate_row("pair", index, alpha, beta, est, dist.product_mean()))

    rng_t = component_stream(args.seed, "simulate/t-observable")
    try:
        est = t_estimate(config, n, rng_t)
        rows.append(_simulate_row("t-observable", None, None, None, est, t_mean(config)))
    except DegenerateSpectrumError:
        status = "t0-zero"

    cfg = _base_config(
        args,
        "simulate",
        alpha1=config.alpha1,
        alpha2=config.alpha2,
        beta1=config.beta1,
        beta2=config.beta2,
        trials=n,
        seed=args.seed,
    )
    _emit(cfg, rows, status, args.format, args.out)
    return EXIT_OK


def _run_scan(args, parser, objective: str | None = None) -> int:
    name = objective or args.objective
    if name not in OBJECTIVES:
        parser.error(f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}")
    if not 2 <= args.resolution <= MAX_RESOLUTION:
        parser.error(f"--resolution must lie in [2, {MAX_RESOLUTION}]")
    if args.restarts < 0:
        parser.error("--restarts must be nonnegative")
    if args.bound is not None and not math.isfinite(args.bound):
        parser.error("--bound must be finite")
    bound = args.bound if args.bound is not None else OBJECTIVES[name].default_bound
    report = verify_bound(
        name,
        bound=bound,
        resolution=args.resolution,
        n_random_restarts=args.restarts,
        seed=args.seed,
    )
    blank = {
        "kind": None,
        "objective": None,
        "resolution": None,
        "restarts": None,
        "n_evaluated": None,
        "n_skipped": None,
        "n_refinements": None,
        "bound": None,
        "max_value": None,
        "min_value": None,
        "n_violations": None,
        "alpha1": None,
        "alpha2": None,
        "beta1": None,
        "beta2": None,
        "value": None,
    }
    summary = dict(blank)
    summary.update(
        kind="summary",
        objective=report.objective_name,
        resolution=report.grid_resolution,
        restarts=args.restarts,
        n_evaluated=report.n_evaluated,
        n_skipped=report.n_skipped,
        n_refinements=report.n_refinements,
        bound=report.bound,
        max_value=report.max_value,
        min_value=report.min_value,
        n_violations=report.n_violations,
        alpha1=report.argmax.alpha1,
        alpha2=report.argmax.alpha2,
        beta1=report.argmax.beta1,
        beta2=report.argmax.beta2,
    )
    rows = [summary]
    for config, value in report.violations:
        row = dict(blank)
        row.update(
            kind="violation",
            alpha1=config.alpha1,
            alpha2=config.alpha2,
            beta1=config.beta1,
            beta2=config.beta2,
            value=value,
        )
        rows.append(row)
    status = "ok" if report.n_violations == 0 else "violations"
    cfg = _base_config(
        args,
        "scan",
        objective=name,
        bound=bound,
        resolution=args.resolution,
        restarts=args.restarts,
        seed=args.seed,
    )
    _emit(cfg, rows, status, args.format, args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--degrees", action="store_true", help="interpret angle flags as degrees")


def _add_four_angles(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha1", type=float, default=None)
    parser.add_argument("--alpha2", type=float, default=None)
    parser.add_argument("--beta1", type=float, default=None)
    parser.add_argument("--beta2", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chshlab", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"chshlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("correlate", help="pair correlation and joint outcome law")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("chsh", help="CHSH estimate in one of the three modes")
    p.add_argument("--mode", choices=["same-lambda", "independent", "quantum"], required=True)
    p.add_argument("--model", choices=["sign", "quantum-mimic"], default=None, help="LHV model name")
    _add_four_angles(p)
    p.add_argument("--trials", type=_trials, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("constrained", help="conditioned four-variable table and expectations")
    p.add_argument("action", choices=["eval", "scan"])
    _add_four_angles(p)
    p.add_argument("--q", default=None, help="4 comma-separated correlations, bypassing angles")
    p.add_argument("--resolution", type=int, default=24)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_constrained)

    p = sub.add_parser("spectrum", help="eigenstructure of the CHSH observable")
    _add_four_angles(p)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="Monte Carlo sampling vs analytic values")
    _add_four_angles(p)
    p.add_argument("--trials", type=_trials, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="bound verification for a named objective")
    p.add_argument(
        "--objective",
        choices=sorted(OBJECTIVES),
        default="constrained_e4",
    )
    p.add_argument("--resolution", type=int, default=24)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
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
    except (EigenConvergenceError, ValueError) as exc:
        # Flags are validated before any computation, so a ValueError here is
        # a library failure: degenerate conditioning or spectrum, a
        # non-Hermitian matrix, invalid model responses or a non-finite output.
        print(f"chshlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
