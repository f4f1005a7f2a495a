"""chshlab benchmark: drive the CLI in-process and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {mc_large,scan_verify,config_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each run measures set-up time in fresh
interpreters, then runs the workload in one fresh single-threaded worker
process: whole passes of the seeded op list until ``--seconds`` have
elapsed. Each op's latency is its fastest repeat over the passes. With
``--trace 1`` a second worker repeats the first pass with every layer
function wrapped (see tracer.py) and the per-layer metrics are reported
instead. Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)
SETUP_REPEATS = 6  # before and again after the workload, so two moments of host load are sampled
# Timed inside the fresh interpreter, so the fixed cost of starting Python is left out.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, {src!r}); "
    "import chshlab.cli as c; c.build_parser(); print(time.perf_counter() - t)"
).format(src=str(SRC))
RUN_BUDGET_S = 170.0  # every run must finish within 180 s


def measure_setup(deadline: float) -> list[float]:
    """Times for a fresh interpreter to import chshlab.cli and build its parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout))
    return times


def run_worker(args, deadline: float, passes: int | None = None, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--passes", str(passes)] if passes else ["--seconds", str(args.seconds)]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_latencies(run: dict) -> list[float]:
    """Each op's latency in seconds: the fastest of its repeats, one per pass.

    The host is shared: other tenants slow every op by 10-30% for seconds
    at a time, so per-op medians spread 15-25% between runs of the same
    code, while the fastest repeat (the least disturbed one) spreads 4-11%.
    """
    n = run["ops_per_pass"]
    samples = run["latencies_s"]
    return [min(samples[i::n]) for i in range(n)]


def end_to_end(run: dict, setup_s: float) -> dict:
    """Every END_TO_END metric plus the workload's work rates, as {name: value}."""
    latencies = op_latencies(run)
    pass_s = sum(latencies)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": len(latencies) / pass_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "error_rate": run["failed"] / run["attempted"],
        "mc_trials_per_s": run["trials_per_pass"] / pass_s,
        "scan_points_per_s": run["points_per_pass"] / pass_s,
    }


def report(workload: str, run: dict, values: dict) -> None:
    n = run["ops_per_pass"]
    print(f"workload {workload}: {run['passes']} passes of {n} ops, "
          f"{run['attempted']} attempted, {run['failed']} failed, wall {run['wall_s']:.2f} s")
    units = dict(END_TO_END, error_rate="1", mc_trials_per_s="1/s", scan_points_per_s="1/s")
    notes = {
        "setup_s": f"median of {2 * SETUP_REPEATS} fresh interpreters",
        "ops_per_s": "ops / sum of op latencies",
        "op_p50_ms": f"over {n} ops, each the fastest of {run['passes']} passes",
        "op_p90_ms": f"over {n} ops, {n - math.ceil(0.9 * n)} beyond p90",
        "mc_trials_per_s": "sum of --trials / sum of op latencies",
        "scan_points_per_s": "sum of resolution^4 / sum of op latencies",
    }
    for name, value in values.items():
        if name in ("mc_trials_per_s", "scan_points_per_s") and value == 0:
            continue  # this workload does no work of that kind
        print(f"  {name:<18} {value:>16.6g} {units[name]:<5} {notes.get(name, '')}")
    for failure in run["failures"]:
        print(f"  FAILED {failure['argv']}: {'; '.join(failure['errors'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (tiny trials and lattices)")
    args = parser.parse_args()
    if not (SRC / "chshlab" / "cli.py").is_file():
        print(f"perfbench: no chshlab sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setup = measure_setup(deadline)
        untraced = run_worker(args, deadline)
        setup_s = statistics.median(setup + measure_setup(deadline))
        traced = run_worker(args, deadline, passes=1, trace=True) if args.trace else None
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = end_to_end(untraced, setup_s)
    report(args.workload, untraced, values)
    runs = [untraced]
    if traced is None:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = traced["per_layer"]
        # Both first passes include the oracle checks and first-call costs.
        layer["trace.untraced_wall_s"] = untraced["pass_wall_s"][0]
        layer["trace.overhead_s"] = traced["wall_s"] - layer["trace.untraced_wall_s"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"traced run (one pass): wall {traced['wall_s']:.2f} s vs untraced first pass "
              f"{layer['trace.untraced_wall_s']:.2f} s "
              f"(overhead {layer['trace.overhead_s']:.2f} s); spans in .perfbench/spans-{args.workload}.npz")
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {layer[name]:>16.6g} {unit}")
        print("  largest self times:")
        for name, value in list(traced["self_by_function"].items())[:8]:
            print(f"    {name:<34} {value:>16.6g} s")
        runs.append(traced)
        for failure in traced["failures"]:
            print(f"  FAILED (traced) {failure['argv']}: {'; '.join(failure['errors'])}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
