"""Replay one fixed CLI corpus through two revisions and list what moved.

    python tools/replay.py BASE [HEAD]

BASE and HEAD are git revisions of this repository; without HEAD the
working tree (uncommitted edits included) is the second side. Each
revision is extracted with ``git archive`` into a temporary directory, and
one subprocess per side imports that revision's ``chshlab`` and calls
``chshlab.cli.main(argv)`` in-process for every argv of the corpus,
recording the exit code, stdout and stderr. The script prints the argv
count and each argv whose exit code, stdout or stderr moved, with the first
field that differs. It exits 1 when anything moved.

CI runs ``python tools/replay.py HEAD`` as its one byte-identity gate:
each side is a fresh interpreter, so it checks that every argv gives the
same exit code, stdout and stderr across processes.

The corpus is built once, from this checkout, so both sides run the same
argvs, each distinct argv once, in first-seen order:

* every op of ``perfbench.workloads.generate``: each workload, seeds 0-2,
  tiny and full;
* the rerun lines RERUNS below, which cover every subcommand at its README
  invocation and at edge configs, and the ``chshlab ...`` invocations of
  README.md;
* the CLI fuzz draws of ``tests/test_cli.py`` (``fuzz_argv``), drawn with
  hypothesis derandomized;
* a seeded sign-model sweep, so that replay checks any change to the flip
  search: both sign protocols of ``chsh`` at SWEEP_TRIALS trials on 61
  angle configs, uniform in +-2 pi and +-10^6 radians, +-10^6 with
  ``--degrees``, multiples of 22.5 degrees, the wrapped and three-flip
  angles of ``tests/test_streaming.py``, and angles that flip just below pi;
* boundary argvs: a NUL byte, an empty path and a missing directory as
  ``--out``, ``--restarts`` at ``scan.MAX_RESTARTS`` and one above, the
  argvs that ``cli`` leaves to the top-level parser or reports under
  its usage line (``--=x``, ``-- x`` and ``--version`` after a command,
  and ``constrained`` alone), one argv per cross-flag usage error, and
  negative values in their own token, those a flag accepts (``--alpha
  -1e-3``) and those it rejects (``--alpha -inf``, ``--out -x``).

Float bytes can differ across machines and numpy builds, so compare two
revisions on one machine; this is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
FUZZ_EXAMPLES = 100
SWEEP_TRIALS = 4099


# The Tsirelson angles, (pi/4, 0, pi/8, 3 pi/8) in radians.
A = "--alpha1 0.7853981633974483 --alpha2 0 --beta1 0.39269908169872414 --beta2 1.1780972450961724"
# Every subcommand at its README invocation and at edge configs: angles at
# +-1e6 and in degrees, Monte Carlo chunk boundaries, a zero-weight
# t-observable, scans at resolution 2 to 128. tests/test_replay.py runs
# each once and asserts exit 0.
RERUNS = [shlex.split(line) for line in f"""
correlate --alpha 0.7853981633974483 --beta 0.39269908169872414
correlate --alpha 1e6 --beta=-1e6
correlate --alpha 1e6 --beta 3 --degrees
correlate --alpha 0.7853981633974483 --beta 0.39269908169872414 --format json
chsh --mode same-lambda --model sign {A} --trials 1000000 --seed 1
chsh --mode quantum {A} --trials 1000000 --seed 1
chsh --mode independent --model sign {A} --trials 200000 --seed 2
chsh --mode independent --model quantum-mimic {A} --trials 200000 --seed 2
chsh --mode independent --model sign {A} --trials 200000 --seed 2 --format json
chsh --mode quantum {A} --trials 200000 --seed 1 --format json
chsh --mode same-lambda --model sign --alpha1 1e6 --alpha2=-1e6 --beta1 3 --beta2 1e-300 --trials 200000 --seed 4
chsh --mode independent --model sign --alpha1 1e6 --alpha2=-1e6 --beta1 3 --beta2 1e-300 --trials 200000 --seed 4
chsh --mode independent --model sign --alpha1 45 --alpha2 0 --beta1 22.5 --beta2 67.5 --degrees --trials 1000000 --seed 3
chsh --mode same-lambda --model sign --alpha1 45 --alpha2 0 --beta1 22.5 --beta2 67.5 --degrees --trials 1000000 --seed 3
chsh --mode independent --model sign --alpha1=-45 --alpha2 90 --beta1 157.5 --beta2=-67.5 --degrees --trials 200000 --seed 5
chsh --mode same-lambda --model sign --alpha1=-45 --alpha2 90 --beta1 157.5 --beta2=-67.5 --degrees --trials 200000 --seed 5
chsh --mode same-lambda --model sign --alpha1 4455 --alpha2 0 --beta1 22.5 --beta2 67.5 --degrees --trials 200000 --seed 6
chsh --mode same-lambda --model sign --alpha1 1e6 --alpha2=-1e6 --beta1 999999.5 --beta2=-1e6 --degrees --trials 200000 --seed 8
chsh --mode independent --model sign --alpha1 1e6 --alpha2=-1e6 --beta1 999999.5 --beta2=-1e6 --degrees --trials 200000 --seed 8
chsh --mode same-lambda --model sign --alpha1=-117.0243263462198 --alpha2=-60.47565858160352 --beta1 0.3 --beta2 1.2 --trials 200000 --seed 10
chsh --mode independent --model sign --alpha1=-117.0243263462198 --alpha2=-60.47565858160352 --beta1 0.3 --beta2 1.2 --trials 200000 --seed 10
simulate --alpha1 0.9 --alpha2 0.1 --beta1 0.4 --beta2 1.3 --trials 100000 --seed 7
simulate --alpha1 0.9 --alpha2 0.1 --beta1 0.4 --beta2 1.3 --trials 100000 --seed 7 --format json
chsh --mode independent --model quantum-mimic {A} --trials 65537 --seed 11
chsh --mode independent --model sign {A} --trials 65537 --seed 11
chsh --mode same-lambda --model sign {A} --trials 65537 --seed 11
simulate --alpha1 0.9 --alpha2 0.1 --beta1 0.4 --beta2 1.3 --trials 32769 --seed 12
chsh --mode quantum {A} --trials 3 --seed 13
chsh --mode independent --model sign {A} --trials 3 --seed 13
chsh --mode same-lambda --model sign {A} --trials 3 --seed 13
simulate --alpha1 0.9 --alpha2 0.1 --beta1 0.4 --beta2 1.3 --trials 3 --seed 13
chsh --mode independent --model sign --alpha1 0.3 --alpha2 0.3 --beta1 0.3 --beta2 0.3 --trials 65537 --seed 14
chsh --mode same-lambda --model sign --alpha1 0.3 --alpha2 0.3 --beta1 0.3 --beta2 0.3 --trials 65537 --seed 14
simulate --alpha1 0.3 --alpha2 0.3 --beta1 0.3 --beta2 1.8707963267948966 --trials 65537 --seed 14
chsh --mode quantum --alpha1 0.3 --alpha2 0.3 --beta1 0.3 --beta2 1.8707963267948966 --trials 65537 --seed 14
chsh --mode quantum --alpha1 1e6 --alpha2=-1e6 --beta1 3 --beta2 1e-300 --trials 65537 --seed 15
chsh --mode independent --model quantum-mimic --alpha1 1e6 --alpha2=-1e6 --beta1 3 --beta2 1e-300 --trials 65537 --seed 15
simulate {A} --trials 65537 --seed 16
spectrum {A}
spectrum {A} --format json
spectrum --alpha1 1e6 --alpha2=-1e6 --beta1 3 --beta2 1e-300
spectrum --alpha1 1e6 --alpha2=-1e6 --beta1 999999.5 --beta2=-1e6 --degrees
spectrum --alpha1=-1e6 --alpha2 1e6 --beta1=-1e6 --beta2 1e6
constrained eval {A}
constrained eval --q=0,0,0,0
constrained eval --q=0.5,-0.2,0.3,0.1 --format json
constrained scan --resolution 16 --restarts 4 --seed 1
scan --objective eight_variable_sum --resolution 24 --restarts 20 --seed 0
scan --objective constrained_e4 --resolution 40 --restarts 20 --seed 3
scan --objective t_validity_margin --resolution 32 --restarts 20 --seed 5
scan --objective eight_variable_sum --resolution 8 --restarts 2 --bound 2 --seed 2 --format json
scan --objective constrained_e4 --resolution 2 --restarts 0 --seed 0
scan --objective t_validity_margin --resolution 3 --restarts 0 --format json
scan --objective eight_variable_sum --resolution 24 --restarts 20 --bound 1 --seed 9
scan --objective eight_variable_sum --resolution 7 --restarts 3 --bound 2.5 --seed 9
scan --objective constrained_e4 --resolution 128 --restarts 20 --seed 3
scan --objective t_validity_margin --resolution 97 --restarts 5 --bound 0.5 --seed 4
constrained scan --resolution 4 --restarts 0
""".strip().splitlines()]


def readme_argvs() -> list[list[str]]:
    """The ``chshlab ...`` invocations of README.md, without the program name."""
    lines = (ROOT / "README.md").read_text().replace("\\\n", " ").splitlines()  # join continuations
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("chshlab ")]


def workload_argvs() -> list[list[str]]:
    from workloads import WORKLOADS, generate

    return [list(op.argv) for w in WORKLOADS for seed in SEEDS for tiny in (True, False) for op in generate(w, seed, tiny)]


def fuzz_argvs() -> list[list[str]]:
    """The fuzz strategy's draws under a fixed hypothesis seed."""
    from hypothesis import given, settings
    from test_cli import fuzz_argv

    draws = []

    @settings(max_examples=FUZZ_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(fuzz_argv())
    def collect(case):
        draws.append(case[0])

    collect()
    return draws


def sign_sweep_argvs() -> list[list[str]]:
    """Both sign protocols on 61 seeded angle configs, each with its own seed."""
    import numpy as np
    from test_streaming import TestFlipPoints

    rng = np.random.default_rng(29)
    radians = [*rng.uniform(-2 * np.pi, 2 * np.pi, (20, 4)), *rng.uniform(-1e6, 1e6, (16, 4))]
    wrapped, three = TestFlipPoints.WRAPPED, TestFlipPoints.THREE
    radians += [[*wrapped, 0.3, 1.2], [*three, 0.3], [three[0], *wrapped, three[1]], [*three[1:], *wrapped]]
    # Three angles that flip within pi / 128 below pi, in the flip grid's last gap.
    radians.append([0.75 * np.pi - 0.01, 0.25 * np.pi - 0.001, -0.25 * np.pi - 0.02, 1.3])
    degrees = [*rng.uniform(-1e6, 1e6, (10, 4)), *(22.5 * rng.integers(-16, 17, (10, 4)))]
    configs = [(a, []) for a in radians] + [(a, ["--degrees"]) for a in degrees]
    names = ("alpha1", "alpha2", "beta1", "beta2")
    return [
        ["chsh", "--mode", mode, "--model", "sign", *(f"--{name}={float(x)!r}" for name, x in zip(names, angles)),
         *flags, "--trials", str(SWEEP_TRIALS), "--seed", str(seed)]
        for (angles, flags), seed in zip(configs, rng.integers(0, 2**31, len(configs)).tolist())
        for mode in ("same-lambda", "independent")
    ]


def boundary_argvs(missing_dir: Path) -> list[list[str]]:
    from chshlab.scan import MAX_RESTARTS

    correlate = ["correlate", "--alpha", "0.3", "--beta", "0.1"]
    scan = ["scan", "--objective", "eight_variable_sum", "--resolution", "2", "--seed", "1"]
    q = ["constrained", "eval", "--q=0,0,0,0"]
    # One argv per cross-flag usage error, then "-..." values in their own token.
    lines = [
        f"chsh --mode same-lambda {A}", f"chsh --mode quantum --model sign {A}",
        f"chsh --mode same-lambda --model quantum-mimic {A}", f"constrained eval --q=0,0,0,0 --degrees {A}",
        "constrained eval --alpha1 0 --beta2 0",
        "correlate --alpha -1e-3 --beta 0.1", "correlate --alpha -inf --beta 0.1", "correlate --alpha -x --beta 0",
        "constrained eval --alpha1 -1e6 --alpha2 0 --beta1 0 --beta2 0", "constrained eval --q -0.5,0,0,0",
        "scan --resolution 2 --restarts 0 --bound -1e-3", f"chsh --mode quantum {A} --trials -5",
        "correlate --alpha 0 --beta 0 --out -x",
    ]
    return [
        *map(shlex.split, lines),
        correlate + ["--out", "nul\0byte.csv"],
        correlate + ["--out", ""],
        correlate + ["--out", str(missing_dir / "out.csv")],
        scan + ["--restarts", str(MAX_RESTARTS)],
        scan + ["--restarts", str(MAX_RESTARTS + 1)],
        correlate + ["--=x"],
        q + ["--=x"],
        correlate + ["--", "x"],
        q + ["--", "x"],
        correlate + ["--version"],
        q + ["--version"],
        ["constrained"],
    ]


def corpus(missing_dir: Path) -> list[list[str]]:
    """The distinct argvs in first-seen order, built from this checkout (its chshlab, tests and perfbench)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    argvs = (workload_argvs() + RERUNS + readme_argvs() + fuzz_argvs() + sign_sweep_argvs()
             + boundary_argvs(missing_dir))
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def run_side(src: str) -> None:
    """Read a JSON list of argvs on stdin; print [exit, stdout, stderr] per argv."""
    sys.path.insert(0, src)
    from chshlab import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is an outcome to compare, not a replay failure
                code = "traceback"
                err.write(traceback.format_exc().splitlines()[-1])
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def _side_results(src: Path, argvs: list, workdir: Path) -> list:
    """run_side in a fresh interpreter, so each side imports only its own chshlab."""
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import replay; replay.run_side({str(src)!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(argvs), stdout=subprocess.PIPE, text=True, cwd=workdir, check=True
    )
    return json.loads(proc.stdout)


def _extract(rev: str, dest: Path) -> Path:
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def first_difference(a, b) -> str:
    """The first of exit code, stdout and stderr that differs, with its first differing line."""
    for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
        if x == y:
            continue
        if name == "exit":
            return f"exit {x} -> {y}"
        xs, ys = x.splitlines(), y.splitlines()
        i = next((k for k, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
        line = lambda lines: repr(lines[i][:120]) if i < len(lines) else "(end)"
        return f"{name} line {i + 1}: {line(xs)} -> {line(ys)}"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the first side")
    parser.add_argument("head", nargs="?", help="git revision of the second side (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="chshlab-replay-") as tmp:
        tmp = Path(tmp)
        work = tmp / "cwd"
        work.mkdir()
        argvs = corpus(tmp / "missing")
        base_src = _extract(args.base, tmp / "base")
        head_src = _extract(args.head, tmp / "head") if args.head else ROOT / "src"
        base, head = (_side_results(src, argvs, work) for src in (base_src, head_src))
    moved = [(argv, first_difference(a, b)) for argv, a, b in zip(argvs, base, head) if a != b]
    print(f"replay {args.base} -> {args.head or 'working tree'}: {len(argvs)} argvs, {len(moved)} moved")
    for argv, diff in moved:
        shown = shlex.join(argv).replace("\0", "\\0")  # a NUL byte printed as \0
        print(f"  {shown}: {diff}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
