"""Run one workload in this process and print its measurements as one JSON line.

Each op calls ``chshlab.cli.main(argv)`` with stdout and stderr captured,
timing only that call. Whole passes over the op list run until the next
one would end further past ``--seconds`` than stopping now (or exactly
``--passes`` passes run). The first pass checks every output with the
oracle; later passes repeat the same argv, must reproduce the first
pass's exit code and output byte for byte, and inherit its verdict.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --passes P) [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402  (perfbench modules, importable because this file sits beside them)
from workloads import WORKLOADS, generate  # noqa: E402

SPANS_DIR = ROOT / ".perfbench"
MAX_REPORTED_FAILURES = 10


def invoke(main, argv) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed op, not a failed benchmark
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def run(workload: str, seed: int, seconds: float, passes: int | None, tiny: bool, tracer=None) -> dict:
    from chshlab import cli

    ops = generate(workload, seed, tiny)
    first: list = [None] * len(ops)
    latencies, pass_wall_s, failures = [], [], []
    failed = harness_s = 0
    start = perf_counter()
    while True:
        if passes:
            if len(pass_wall_s) == passes:
                break
        elif pass_wall_s and (perf_counter() - start) + statistics.mean(pass_wall_s) / 2 >= seconds:
            break  # another pass would end further from `seconds` than stopping now
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            loop_start = perf_counter()
            if tracer is not None:
                tracer.op = len(latencies)
            code, stdout, dt = invoke(cli.main, op.argv)
            if first[i] is None:
                first[i] = (code, stdout, oracle.check(op, code, stdout))
            same = (code, stdout) == first[i][:2]
            errors = first[i][2] if same else ["output differs from the first pass"]
            if errors:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append({"argv": " ".join(op.argv), "errors": errors[:5]})
            latencies.append(dt)
            harness_s += perf_counter() - loop_start - dt
        pass_wall_s.append(perf_counter() - pass_start)
    wall_s = perf_counter() - start
    return {
        "passes": len(pass_wall_s),
        "ops_per_pass": len(ops),
        "trials_per_pass": sum(op.trials for op in ops),
        "points_per_pass": sum(op.lattice_points for op in ops),
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "pass_wall_s": pass_wall_s,
        "wall_s": wall_s,
        "harness_s": harness_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=None, help="run exactly this many passes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run(args.workload, args.seed, args.seconds, args.passes, args.tiny, tracer)
    if tracer is not None:
        result["per_layer"] = tracer.metrics(result["wall_s"], result["harness_s"])
        result["self_by_function"] = tracer.self_by_function()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
