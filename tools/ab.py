"""Benchmark two revisions in alternating pairs of perfbench runs and summarise the ratios.

    python tools/ab.py BASE [HEAD] --workload W --pairs N [--seconds S] [--seed K] [--control] [--out PATH]

BASE and HEAD are git revisions of this repository; without HEAD the
working tree (uncommitted edits included) is the second side, and with
``--control`` BASE is both sides, which measures the noise floor. Each
revision is extracted with ``git archive`` (as ``tools/replay.py`` does),
and each side runs its own ``perfbench/run.py --trace 0`` from its own
tree, so each benchmarks its own sources with its own harness.

Pair i runs both sides with seed K + i, and the side that runs first
alternates: BASE first in even pairs, HEAD first in odd ones. perfbench
favours whichever side runs first, and absolute rates drift within a
session, so only paired ratios compare two revisions.

The script prints, per pair, HEAD / BASE for every metric of METRICS and
each side's failed ops; then, per metric, the median ratio, the number of
pairs HEAD won (ties count for neither), each side's median and quartiles,
and whether the gain rule of :func:`summarize` holds. ``--workload`` may
be given more than once. With ``--out`` it writes one JSON file with both
revisions, ``nproc``, the load average before and after, argv, every
run's raw metrics and the summaries; a change that claims a speed-up
checks that file in as ``BENCH_<change>.json``.

Run on an otherwise idle machine; this is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import replay

ROOT = replay.ROOT
# The end-to-end metrics compared, each with the direction that is better.
METRICS = {"ops_per_s": "higher", "op_p50_ms": "lower", "op_p90_ms": "lower", "peak_rss_mb": "lower"}
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) by linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict]) -> dict:
    """Per metric of METRICS: ratios HEAD / BASE, wins, each side's quartiles and the gain rule.

    Each pair is {"base": {metric: value}, "head": {metric: value}}. A pair
    is a win where HEAD is strictly better. ``gain`` holds where HEAD wins
    at least WIN_SHARE of the pairs and its median is better than BASE's
    by more than BASE's interquartile range, so it also lies beyond BASE's
    quartile on the better side.
    """
    summary = {}
    for name, better in METRICS.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        summary[name] = {
            "better": better,
            "ratios": [h / b for b, h in zip(base, head)],
            "median_ratio": statistics.median(h / b for b, h in zip(base, head)),
            "wins": wins,
            "pairs": len(pairs),
            "base_quartiles": list(bq),
            "head_quartiles": list(hq),
            "gain": wins >= WIN_SHARE * len(pairs) and sign * (hq[1] - bq[1]) > bq[2] - bq[0],
        }
    return summary


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``tree``: its final JSON line, metric values flattened."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def run_pairs(trees: dict, workload: str, pairs: int, seed: int, seconds: float) -> list[dict]:
    out = []
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        runs = {side: run_bench(trees[side], workload, seed + i, seconds) for side in order}
        pair = {"seed": seed + i, "first": order[0], "failed": {s: runs[s]["failed"] for s in order},
                "attempted": {s: runs[s]["attempted"] for s in order}, **{s: runs[s]["metrics"] for s in order}}
        print(f"  pair {i} seed {seed + i} {order[0]} first: "
              + "  ".join(f"{name} {pair['head'][name] / pair['base'][name]:.3f}" for name in METRICS)
              + f"  failed {pair['failed']['base']}/{pair['failed']['head']}", flush=True)
        out.append(pair)
    return out


def report(summary: dict) -> None:
    for name, s in summary.items():
        (b1, b2, b3), (h1, h2, h3) = s["base_quartiles"], s["head_quartiles"]
        print(f"  {name:<12} median ratio {s['median_ratio']:.4f}  wins {s['wins']}/{s['pairs']}  "
              f"base {b2:.4g} [{b1:.4g}, {b3:.4g}]  head {h2:.4g} [{h1:.4g}, {h3:.4g}]  "
              f"gain {'yes' if s['gain'] else 'no'}")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the first side")
    parser.add_argument("head", nargs="?", help="git revision of the second side (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True, help="perfbench workload; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench --seconds per run (default 30)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--control", action="store_true", help="run BASE on both sides")
    parser.add_argument("--out", type=Path, help="write the raw metrics and summaries to this JSON file")
    args = parser.parse_args(argv)
    if args.control and args.head:
        parser.error("--control takes no HEAD")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    head_rev = args.base if args.control else args.head
    head_name = head_rev or "working tree"
    record = {
        "argv": sys.argv if argv is None else ["tools/ab.py", *argv],
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        # The working tree is recorded as the commit it sits on and the paths that differ from it.
        "head": {"rev": head_name, "commit": _git("rev-parse", head_rev or "HEAD"),
                 "changed": None if head_rev else _git("status", "--porcelain").splitlines()},
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="chshlab-ab-") as tmp:
        base = replay._extract(args.base, Path(tmp) / "base").parent
        if args.control:
            head = base
        elif head_rev:
            head = replay._extract(head_rev, Path(tmp) / "head").parent
        else:
            head = ROOT
        for workload in args.workload:
            print(f"ab {args.base} -> {head_name}: {workload}, {args.pairs} pairs of {args.seconds:g} s", flush=True)
            pairs = run_pairs({"base": base, "head": head}, workload, args.pairs, args.seed, args.seconds)
            summary = summarize(pairs)
            failed = {side: sum(p["failed"][side] for p in pairs) for side in ("base", "head")}
            report(summary)
            print(f"  failed ops: base {failed['base']}, head {failed['head']}")
            record["workloads"][workload] = {"pairs": pairs, "failed": failed, "summary": summary}
    record["loadavg_after"] = os.getloadavg()
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
