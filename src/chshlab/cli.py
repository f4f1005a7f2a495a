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
conditioning), 2 usage error (which never touches --out; an --out path
that cannot be created or truncated, as a shell's > would before the run,
is one too), 3 status bound-violation, 4 numerical failure (any library
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
    text = "[]"
    if rows:
        flat = json.dumps(rows, separators=(_ROW_ITEM, ": "), allow_nan=False)
        text = "[\n    {\n      " + flat[2:-2].replace(_ROW_BREAK, "\n    },\n    {\n      ") + "\n    }\n  ]"
    head = json.dumps(config, indent=2, allow_nan=False).replace("\n", "\n  ")
    return f'{{\n  "config": {head},\n  "rows": {text},\n  "status": {json.dumps(status)}\n}}\n'


def _render(config: dict, columns: tuple, rows: list[dict], status: str, fmt: str) -> str:
    try:
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
                raise ValueError(text)
            writer.writerow(cells.values())
        return buf.getvalue()
    except ValueError:  # only a NaN or infinite float fails to encode; name the first
        # A row holds scalars; a config value may also be a list of them (--q).
        values = [x for doc in (config, *rows) for v in doc.values() for x in (v if isinstance(v, list) else [v])]
        bad = next(v for v in values if isinstance(v, float) and not math.isfinite(v))
        raise ValueError(f"non-finite value {bad!r}") from None


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


def cmd_correlate(args) -> tuple:
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
    return "correlate", {"alpha": alpha, "beta": beta}, CORRELATE_COLUMNS, [row], "ok"


def _check_chsh(args, error) -> None:
    if args.mode in ("same-lambda", "independent") and args.model is None:
        error(f"--model is required for mode {args.mode}")
    if args.mode == "quantum" and args.model is not None:
        error("--model is not accepted in quantum mode")
    if args.mode == "same-lambda" and args.model == "quantum-mimic":
        error("same-lambda mode requires a local-hidden-variable model, not quantum-mimic")


def cmd_chsh(args) -> tuple:
    config = _full_angles(args)
    rng = component_stream(args.seed, f"chsh/{args.mode}")
    if args.model == "sign":
        estimator = chsh_same_lambda if args.mode == "same-lambda" else chsh_independent
        est = estimator(config, args.trials, rng)
    else:  # quantum mode, or independent pairs drawn from the singlet law
        est = quantum_chsh_independent(config, args.trials, rng)
    lo, hi, deterministic = CHSH_BOUNDS[args.mode]

    # Statistical allowance for the quantum bound: it constrains the
    # expectation, not the finite-sample mean.
    slack = 0.0 if deterministic else 4.0 * est.stderr
    within = lo - slack <= est.mean <= hi + slack
    row = {
        "mode": args.mode,
        "model": args.model,
        "estimate": est.mean,
        "stderr": est.stderr,
        "trials": est.n_samples,
        "bound_lo": lo,
        "bound_hi": hi,
        "within_bound": within,
    }
    echo = {"mode": args.mode, "model": args.model, **vars(config), "trials": args.trials, "seed": args.seed}
    return "chsh", echo, CHSH_COLUMNS, [row], "ok" if within else "bound-violation"


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


def _check_constrained(args, error) -> None:
    given = [f"--{k}" for k in FOUR_ANGLES if getattr(args, k) is not None]
    if args.q is not None:
        extra = given + (["--degrees"] if args.degrees else [])
        if extra:
            error(f"argument --q: not allowed with {', '.join(extra)}")
    elif len(given) < 4:
        missing = [f"--{k}" for k in FOUR_ANGLES if getattr(args, k) is None]
        error(f"the following arguments are required without --q: {', '.join(missing)}")


def cmd_constrained(args) -> tuple:
    if args.q is not None:
        quad, echo = args.q, {"q": list(args.q.astuple())}
    else:
        config = _full_angles(args)
        quad, echo = correlation_quad(config), vars(config)
    rows, status = _constrained_rows(quad)
    return "constrained", {"action": "eval", **echo}, CONSTRAINED_COLUMNS, rows, status


def cmd_spectrum(args) -> tuple:
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
    return "spectrum", vars(config), SPECTRUM_COLUMNS, rows, status


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


def cmd_simulate(args) -> tuple:
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
    return "simulate", echo, SIMULATE_COLUMNS, rows, status


def _run_scan(args) -> tuple:
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
    return "scan", echo, SCAN_COLUMNS, [summary, *violations], status


def _add_angles(flag, names=FOUR_ANGLES, required: bool = True) -> None:
    for name in names:
        flag(f"--{name}", type=_angle, required=required)
    flag("--degrees", action="store_true", help="interpret angle flags as degrees")


def _add_scan_flags(flag) -> None:
    flag("--resolution", type=_int_range(2, MAX_RESOLUTION), default=24)
    flag("--restarts", type=_int_range(0, MAX_RESTARTS), default=20)
    flag("--bound", type=_finite)
    flag("--seed", type=_int_range(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chshlab", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"chshlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    trials, seed = _int_range(2), _int_range(0)
    # Under the argv words that name each command: its flag table for _read_flags
    # (its actions by option string, the required dests, the namespace its parse
    # starts from), and its cross-flag check, reporting under its usage line.
    parser.commands, parser.checks = {}, {}

    def command(group, words: tuple, func, help: str, check=lambda args, error: None, **defaults):
        # Every command takes --format and --out, and reports usage errors
        # under its own usage line. Its defaults name the command as the
        # subparser actions do, so they fill the whole namespace.
        p = group.add_parser(words[-1], help=help)
        defaults.update(func=func, **dict(zip(("subcommand", "action"), words)))
        p.set_defaults(**defaults)
        actions, required = {}, set()
        parser.commands[words] = (actions, required, defaults)
        parser.checks[words] = lambda args: check(args, p.error)

        def flag(name: str, **kwargs) -> None:
            action = actions[name] = p.add_argument(name, **kwargs)
            defaults[action.dest] = p.get_default(action.dest)
            if action.required:
                required.add(action.dest)

        flag("--format", choices=["csv", "json"], default="csv")
        flag("--out", help="write output to this path instead of stdout")
        return flag

    flag = command(sub, ("correlate",), cmd_correlate, "pair correlation and joint outcome law")
    _add_angles(flag, ("alpha", "beta"))

    flag = command(sub, ("chsh",), cmd_chsh, "CHSH estimate in one of the three modes", _check_chsh)
    flag("--mode", choices=["same-lambda", "independent", "quantum"], required=True)
    flag("--model", choices=["sign", "quantum-mimic"], help="LHV model name")
    _add_angles(flag)
    flag("--trials", type=trials, default=100_000)
    flag("--seed", type=seed, default=0)

    p = sub.add_parser("constrained", help="conditioned four-variable table and expectations")
    actions = p.add_subparsers(dest="action", required=True)
    flag = command(actions, ("constrained", "eval"), cmd_constrained, "the 16-cell table at four angles or at --q",
                   _check_constrained)
    _add_angles(flag, required=False)
    flag("--q", type=_quad, help="4 comma-separated correlations, instead of the angles")
    flag = command(actions, ("constrained", "scan"), _run_scan, "scan --objective constrained_e4",
                   objective="constrained_e4")
    _add_scan_flags(flag)

    flag = command(sub, ("spectrum",), cmd_spectrum, "eigenstructure of the CHSH observable")
    _add_angles(flag)

    flag = command(sub, ("simulate",), cmd_simulate, "Monte Carlo sampling vs analytic values")
    _add_angles(flag)
    flag("--trials", type=trials, default=100_000)
    flag("--seed", type=seed, default=0)

    flag = command(sub, ("scan",), _run_scan, "bound verification for a named objective")
    flag("--objective", choices=sorted(OBJECTIVES), default="constrained_e4")
    _add_scan_flags(flag)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building it costs more than a small command's
    # work, and parse_args keeps no state between calls (each call fills a
    # fresh Namespace).
    return build_parser()


def _value(action: argparse.Action, text: str):
    """text through the flag's type and choices, or None where argparse rejects it."""
    try:
        value = text if action.type is None else action.type(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return value if action.choices is None or value in action.choices else None


def _join_values(actions: dict, tokens: list[str]) -> list[str]:
    """tokens with each exact typed flag joined to a following "-..." value it accepts, as "--flag=value".

    argparse reads a separate "-..." token as an option unless it is a
    plain negative number, so "--alpha -1e-3" would leave --alpha without a
    value; joined, it reads as "--alpha=-1e-3". A token the flag's type or
    choices reject (-inf, -x) stays apart and argparse reports it, and so
    does the value of an untyped flag (--out -x). Tokens after "--" are
    positional and stay as they are.
    """
    joined, i = [], 0
    while i < len(tokens) and tokens[i] != "--":
        action = actions.get(tokens[i])
        token, i = tokens[i], i + 1
        if (action is not None and action.type is not None and i < len(tokens)
                and tokens[i].startswith("-") and _value(action, tokens[i]) is not None):
            token, i = f"{token}={tokens[i]}", i + 1
        joined.append(token)
    return joined + tokens[i:]


def _read_flags(table, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace parse_args gives a command's flag tokens, or None to leave them to argparse.

    Reads only exact option strings of the command's table: a flag that
    takes a value as "--name value" or "--name=value", where a separate value
    opens with "-" only for a typed flag (the tokens _join_values joins), and
    a bare --degrees. Each value must pass the flag's type and choices, a
    repeated flag keeps its last value, and every required flag must be
    given. Anything else (an abbreviation, -h, --, a rejected value, a
    missing flag, a stray token) gives None, and argparse reports it.
    """
    actions, required, defaults = table
    values, seen, i = dict(defaults), set(), 0
    while i < len(tokens):
        name, eq, text = tokens[i].partition("=")
        action = actions.get(name)
        i += 1
        if action is None or (eq and action.nargs == 0):
            return None
        if action.nargs == 0:
            value = action.const
        else:
            if not eq:
                # argparse reads a separate "-..." as an option unless it is
                # a plain negative number; it decides for an untyped flag.
                if i == len(tokens) or (action.type is None and tokens[i].startswith("-")):
                    return None
                text, i = tokens[i], i + 1
            value = _value(action, text)
            if value is None:
                return None
        values[action.dest] = value
        seen.add(action.dest)
    return argparse.Namespace(**values) if required <= seen else None


def _parse(argv) -> argparse.Namespace:
    """The namespace of argv; every usage error exits 2 here, before --out is touched.

    The flags are read from the command's flag table when _read_flags
    accepts them, else by parse_args on the argv as _join_values joins it,
    which writes every other usage error and help text. Last, the command's
    cross-flag check runs.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2]) if tuple(argv[:2]) in parser.commands else tuple(argv[:1])
    table = parser.commands.get(words)
    args = None if table is None else _read_flags(table, argv[len(words):])
    if args is None:
        if table is not None:
            argv = [*words, *_join_values(table[0], argv[len(words):])]
        args = parser.parse_args(argv)
        words = (args.subcommand, args.action) if "action" in args else (args.subcommand,)
    parser.checks[words](args)
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
        with out as stream:
            subcommand, echo, columns, rows, status = args.func(args)
            config = {"version": __version__, "subcommand": subcommand, **echo, "format": args.format, "out": args.out}
            stream.write(_render(config, columns, rows, status, args.format))
        return EXIT_BOUND_VIOLATION if status == "bound-violation" else EXIT_OK
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
