"""Command-line interface: every computation as a reproducible subcommand.

Subcommands
    correlate    analytic vs matrix-computed pair correlation and joint law
    chsh         CHSH estimates (same-lambda / independent / quantum modes)
    constrained  the conditioned four-variable table and expectations
    spectrum     eigenstructure and outcome law of the CHSH observable
    simulate     Monte Carlo pair and observable sampling vs analytic values
    scan         bound verification by lattice scan plus refinement

Angles are radians unless --degrees (taken only beside angle flags) is
given; output always echoes radians. Angle flags must be finite with
|value| <= 1e6 in their own unit: a larger float angle keeps too little
phase for the independent routes to agree. chsh --model quantum-mimic
(independent mode) samples the pairs from the singlet law under the +-4
bound; no model class is behind it. constrained eval takes the four angles
or --q; constrained scan is scan --objective constrained_e4.
Every output embeds the package version and the fully resolved run
configuration, so re-running the printed configuration reproduces the
output byte for byte. CSV output carries the same envelope in '#' comment
lines above the header row; numeric CSV fields use 17 significant digits.

Exit codes: 0 success (including status rows such as degenerate
conditioning), 2 usage error (including an unwritable --out path, which
is created or truncated before the run, as a shell's > would), 3
internal deterministic-bound violation, 4 numerical failure (any library
error once the flags are validated, including a NaN or infinite output
value, which is never written). Run as a program, a closed stdout pipe
ends the process by SIGPIPE with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import signal
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
    MAX_ANGLE,
    AngleConfig,
    angle_pairs,
    chsh_independent,
    chsh_same_lambda,
    quantum_chsh_independent,
)
from .linalg import EigenConvergenceError
from .quantum import joint_distribution, product_estimate, singlet_correlation, singlet_state
from .scan import MAX_RESOLUTION, MAX_RESTARTS, OBJECTIVES, verify_bound
from .seeding import component_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_NUMERICAL = 4

SQRT8 = 2.0 * math.sqrt(2.0)

FOUR_ANGLES = ("alpha1", "alpha2", "beta1", "beta2")

# (lower, upper, deterministic) bound on the estimate of each chsh mode.
CHSH_BOUNDS = {
    "same-lambda": (-2.0, 2.0, True),
    "independent": (-4.0, 4.0, True),
    "quantum": (-SQRT8, SQRT8, False),
}

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


# json.dumps(indent=2) puts each key of a row on its own line, six spaces in.
_ROW_ITEM = ",\n      "
_ROW_BREAK = "},\n      {"


def _json(config: dict, rows: list[dict], status: str) -> str:
    """json.dumps(doc, indent=2) of the document, with the rows in one C-encoder call.

    The indent encoder is pure Python. Rows hold only scalars, so the C
    encoder with _ROW_ITEM between items lays out their keys the same way;
    the row braces are rebuilt at each _ROW_BREAK, which cannot occur inside
    a string (strings escape newlines).
    """
    try:
        text = "[]"
        if rows:
            flat = json.dumps(rows, separators=(_ROW_ITEM, ": "), allow_nan=False)
            text = "[\n    {\n      " + flat[2:-2].replace(_ROW_BREAK, "\n    },\n    {\n      ") + "\n    }\n  ]"
        head = json.dumps(config, indent=2, allow_nan=False).replace("\n", "\n  ")
        return f'{{\n  "config": {head},\n  "rows": {text},\n  "status": {json.dumps(status)}\n}}\n'
    except ValueError:
        # A non-finite value: the indent encoder raises it with its own
        # message ("...not JSON compliant: nan").
        doc = {"config": config, "rows": rows, "status": status}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _render(config: dict, columns: tuple, rows: list[dict], status: str, fmt: str) -> str:
    if fmt == "json":
        blank = dict.fromkeys(columns)
        return _json(config, [{**blank, **row} for row in rows], status)
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, allow_nan=False) + "\n")
    buf.write("# status: " + status + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # Absent columns stay empty; csv writes str(v), and "" for None, so only floats and bools are formatted.
    blank = dict.fromkeys(columns, "")
    for row in rows:
        cells, text = {**blank, **row}, ""
        for k, v in row.items():
            if isinstance(v, float):
                cells[k] = f"{v:.17g}"
                text += cells[k]
            elif isinstance(v, bool):
                cells[k] = "true" if v else "false"
        if "n" in text:  # finite .17g text holds no "n"; inf and NaN do
            bad = next(v for v in row.values() if isinstance(v, float) and not math.isfinite(v))
            raise ValueError(f"non-finite value {bad!r}")
        writer.writerow(cells.values())
    return buf.getvalue()


def _emit(args, subcommand: str, echo: dict, columns: tuple, rows: list[dict], status: str) -> None:
    """Write the rows under the run configuration: version, subcommand, echo, format, out."""
    config = {"version": __version__, "subcommand": subcommand,
              **echo, "format": args.format, "out": args.out}
    args.stream.write(_render(config, columns, rows, status, args.format))


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _angle(text: str) -> float:
    # The sign model's MAX_ANGLE, held in the flag's own unit: with --degrees
    # the largest angle the models see is radians(1e6), about 17,453.
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


def _full_angles(args) -> AngleConfig:
    return AngleConfig(*_angles([getattr(args, k) for k in FOUR_ANGLES], args.degrees))


def cmd_correlate(args) -> int:
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


def cmd_chsh(args) -> int:
    config = _full_angles(args)
    mode = args.mode
    model_name = args.model
    if mode in ("same-lambda", "independent") and model_name is None:
        args.parser.error(f"--model is required for mode {mode}")
    if mode == "quantum" and model_name is not None:
        args.parser.error("--model is not accepted in quantum mode")
    if mode == "same-lambda" and model_name == "quantum-mimic":
        args.parser.error("same-lambda mode requires a local-hidden-variable model, not quantum-mimic")

    rng = component_stream(args.seed, f"chsh/{mode}")
    if model_name == "sign":
        estimator = chsh_same_lambda if mode == "same-lambda" else chsh_independent
        est = estimator(config, args.trials, rng)
    else:  # quantum mode, or independent pairs drawn from the singlet law
        est = quantum_chsh_independent(config, args.trials, rng)
    lo, hi, deterministic = CHSH_BOUNDS[mode]

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


def cmd_constrained(args) -> int:
    given = [f"--{k}" for k in FOUR_ANGLES if getattr(args, k) is not None]
    if args.q is not None:
        extra = given + (["--degrees"] if args.degrees else [])
        if extra:
            args.parser.error(f"argument --q: not allowed with {', '.join(extra)}")
        quad, echo = args.q, {"q": list(args.q.astuple())}
    elif len(given) < 4:
        missing = [f"--{k}" for k in FOUR_ANGLES if getattr(args, k) is None]
        args.parser.error(f"the following arguments are required without --q: {', '.join(missing)}")
    else:
        config = _full_angles(args)
        quad, echo = correlation_quad(config), vars(config)
    rows, status = _constrained_rows(quad)
    _emit(args, "constrained", {"action": "eval", **echo}, CONSTRAINED_COLUMNS, rows, status)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    config = _full_angles(args)
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


def cmd_simulate(args) -> int:
    config = _full_angles(args)
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


def _run_scan(args) -> int:
    name = args.objective
    report = verify_bound(
        name,
        bound=args.bound,
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
    echo = {"objective": name, "bound": report.bound, "resolution": args.resolution,
            "restarts": args.restarts, "seed": args.seed}
    _emit(args, "scan", echo, SCAN_COLUMNS, [summary, *violations], status)
    return EXIT_OK


def _add_angles(parser: argparse.ArgumentParser, names=FOUR_ANGLES, required: bool = True) -> None:
    for name in names:
        parser.add_argument(f"--{name}", type=_angle, required=required)
    parser.add_argument("--degrees", action="store_true", help="interpret angle flags as degrees")


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=_int_range(2, MAX_RESOLUTION), default=24)
    parser.add_argument("--restarts", type=_int_range(0, MAX_RESTARTS), default=20)
    parser.add_argument("--bound", type=_finite)
    parser.add_argument("--seed", type=_int_range(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chshlab", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"chshlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    trials, seed = _int_range(2), _int_range(0)
    parser.commands = {}  # each command's parser under the argv words that name it, for _parse

    def command(group, words: tuple, func, help: str, **defaults) -> argparse.ArgumentParser:
        # Every command takes --format and --out, and reports usage errors
        # under its own usage line. Its defaults name the command as the
        # subparser actions do, so its own parser fills the same namespace.
        p = group.add_parser(words[-1], help=help)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(func=func, parser=p, **dict(zip(("subcommand", "action"), words)), **defaults)
        parser.commands[words] = p
        return p

    p = command(sub, ("correlate",), cmd_correlate, "pair correlation and joint outcome law")
    _add_angles(p, ("alpha", "beta"))

    p = command(sub, ("chsh",), cmd_chsh, "CHSH estimate in one of the three modes")
    p.add_argument("--mode", choices=["same-lambda", "independent", "quantum"], required=True)
    p.add_argument("--model", choices=["sign", "quantum-mimic"], help="LHV model name")
    _add_angles(p)
    p.add_argument("--trials", type=trials, default=100_000)
    p.add_argument("--seed", type=seed, default=0)

    p = sub.add_parser("constrained", help="conditioned four-variable table and expectations")
    actions = p.add_subparsers(dest="action", required=True)
    p = command(actions, ("constrained", "eval"), cmd_constrained, "the 16-cell table at four angles or at --q")
    _add_angles(p, required=False)
    p.add_argument("--q", type=_quad, help="4 comma-separated correlations, instead of the angles")
    p = command(actions, ("constrained", "scan"), _run_scan, "scan --objective constrained_e4",
                objective="constrained_e4")
    _add_scan_flags(p)

    p = command(sub, ("spectrum",), cmd_spectrum, "eigenstructure of the CHSH observable")
    _add_angles(p)

    p = command(sub, ("simulate",), cmd_simulate, "Monte Carlo sampling vs analytic values")
    _add_angles(p)
    p.add_argument("--trials", type=trials, default=100_000)
    p.add_argument("--seed", type=seed, default=0)

    p = command(sub, ("scan",), _run_scan, "bound verification for a named objective")
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default="constrained_e4")
    _add_scan_flags(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building it costs more than a small command's
    # work, and parse_args keeps no state between calls (each call fills a
    # fresh Namespace).
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """_parser().parse_args(argv), with a command's flags parsed by its own parser alone.

    The parsers above a command only match each argument against their own
    options. That changes the outcome only for an argument opening with
    "--=", which the top-level parser reports as ambiguous (--help or
    --version), so argv holding one, and argv that does not open with a
    command's words, take parse_args. Leftovers are reported as parse_args
    reports them, under the top-level usage line.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2]) if tuple(argv[:2]) in parser.commands else tuple(argv[:1])
    command = parser.commands.get(words)
    if command is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[len(words):])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        # Like a shell's `>`, --out is created or truncated before the run,
        # so a path that cannot be opened (even "") fails before any work.
        stdout = contextlib.nullcontext(sys.stdout)
        try:
            out = stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
        except ValueError as exc:  # a NUL byte in the path
            raise OSError(exc) from exc
        with out as args.stream:
            return args.func(args)
    except (AsymmetricSpectrumError, EigenConvergenceError, ValueError) as exc:
        # Flags are validated before any computation, so a ValueError here is
        # a library failure: degenerate conditioning or spectrum, a
        # non-Hermitian matrix, per-trial values outside the protocol's value
        # set or a non-finite output.
        print(f"chshlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # Only --out (its open, write or close) touches the file system.
        if args.out is None:
            raise
        print(f"chshlab: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    # A reader that closes the pipe early ends the process quietly, as it
    # would end a Unix filter, instead of raising BrokenPipeError.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
