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

The corpus is built once, from this checkout, so both sides run the same
argvs:

* every op of ``perfbench.workloads.generate``: each workload, seeds 0-2,
  tiny and full;
* the byte-identical rerun lines of ``.github/workflows/tests.yml`` and
  the ``chshlab ...`` invocations of README.md;
* the CLI fuzz draws of ``tests/test_cli.py`` (``fuzz_argv``), drawn with
  hypothesis derandomized;
* a seeded sign-model sweep, so that replay checks any change to the flip
  search: both sign protocols of ``chsh`` at SWEEP_TRIALS trials on 61
  angle configs, uniform in +-2 pi and +-10^6 radians, +-10^6 with
  ``--degrees``, multiples of 22.5 degrees, the wrapped and three-flip
  angles of ``tests/test_streaming.py``, and angles that flip just below pi;
* boundary argvs: a NUL byte, an empty path and a missing directory as
  ``--out``, ``--restarts`` at ``scan.MAX_RESTARTS`` and one above, and
  the argvs that ``cli`` leaves to the top-level parser or reports under
  its usage line: ``--=x``, ``-- x`` and ``--version`` after a command,
  and ``constrained`` alone.

Float bytes can differ across machines and numpy builds, so compare two
revisions on one machine; this is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
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


def ci_argvs() -> list[list[str]]:
    """The argvs of the CI byte-identical rerun loop, with $A expanded."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    variables = dict(re.findall(r'^\s*(\w+)="([^"]*)"\s*$', text, re.M))
    body = re.search(r"<<EOF\n(.*?)\n\s*EOF\n", text, re.S).group(1)
    expand = lambda line: re.sub(r"\$(\w+)", lambda m: variables[m.group(1)], line)
    return [shlex.split(expand(line)) for line in body.splitlines() if line.strip()]


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
    return [
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
    """The argvs, built from this checkout (its chshlab, tests and perfbench)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    return (workload_argvs() + ci_argvs() + readme_argvs() + fuzz_argvs() + sign_sweep_argvs()
            + boundary_argvs(missing_dir))


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
