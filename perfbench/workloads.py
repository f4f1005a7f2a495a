"""Seeded generation of the CLI invocations each workload runs.

A workload is one pass: a fixed list of :class:`Op`, each the argv handed
to ``chshlab.cli.main`` plus the parameters the oracle needs to predict
its output. The list is a pure function of (workload, seed, tiny); another
seed gives other angles, q vectors and ``--seed`` values in a list of the
same shape (same op kinds, trial counts and resolutions), so every seed
does the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

WORKLOADS = ("mc_large", "scan_verify", "config_sweep")

# Edge configurations pinned into config_sweep, each with the statuses the
# CLI must report for it (see oracle.expected_status).
TSIRELSON = (math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8)
T0_ZERO = (math.pi / 4, 0.0, math.pi / 4, 0.0)
COLLAPSED = (0.6, 0.6, 0.2, 0.2)
DEGENERATE_Q = (1.0, 1.0, 1.0, -1.0)

OBJECTIVES = ("constrained_e4", "eight_variable_sum", "t_validity_margin")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the oracle needs to check it."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    trials: int = 0  # the invocation's --trials
    lattice_points: int = 0  # resolution^4 for scans


def _angles(cfg) -> list[str]:
    a1, a2, b1, b2 = cfg
    return ["--alpha1", repr(a1), "--alpha2", repr(a2), "--beta1", repr(b1), "--beta2", repr(b2)]


def _random_config(rng: random.Random) -> tuple[float, float, float, float]:
    return tuple(rng.uniform(0.0, math.pi) for _ in range(4))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def chsh_op(mode: str, model: str | None, cfg, trials: int, seed: int, fmt: str = "json") -> Op:
    argv = ["chsh", "--mode", mode] + (["--model", model] if model else [])
    argv += _angles(cfg) + ["--trials", str(trials), "--seed", str(seed), "--format", fmt]
    kind = "chsh_quantum" if mode == "quantum" else f"chsh_{mode}_{model}"
    return Op(kind, tuple(argv), {"cfg": cfg, "trials": trials}, trials=trials)


def simulate_op(cfg, trials: int, seed: int, fmt: str = "json") -> Op:
    argv = ["simulate"] + _angles(cfg) + ["--trials", str(trials), "--seed", str(seed), "--format", fmt]
    return Op("simulate", tuple(argv), {"cfg": cfg, "trials": trials}, trials=trials)


def correlate_op(alpha: float, beta: float, fmt: str) -> Op:
    argv = ("correlate", "--alpha", repr(alpha), "--beta", repr(beta), "--format", fmt)
    return Op("correlate", argv, {"alpha": alpha, "beta": beta})


def constrained_op(cfg, fmt: str) -> Op:
    argv = ("constrained", "eval", *_angles(cfg), "--format", fmt)
    return Op("constrained_eval", argv, {"cfg": cfg})


def constrained_q_op(q, fmt: str) -> Op:
    # "--q=..." keeps a leading minus sign from reading as an option.
    argv = ("constrained", "eval", "--q=" + ",".join(repr(v) for v in q), "--format", fmt)
    return Op("constrained_eval", argv, {"q": tuple(q)})


def spectrum_op(cfg, fmt: str) -> Op:
    return Op("spectrum", ("spectrum", *_angles(cfg), "--format", fmt), {"cfg": cfg})


def scan_op(objective: str, resolution: int, restarts: int, seed: int, via_constrained: bool) -> Op:
    head = ["constrained", "scan"] if via_constrained else ["scan", "--objective", objective]
    argv = head + ["--resolution", str(resolution), "--restarts", str(restarts), "--seed", str(seed)]
    params = {"objective": objective, "resolution": resolution, "restarts": restarts}
    return Op("scan", tuple(argv + ["--format", "json"]), params, lattice_points=resolution**4)


def mc_large(rng: random.Random, tiny: bool) -> list[Op]:
    """Monte Carlo kernels at 1e6 trials: six configs times five estimators."""
    trials = 2_000 if tiny else 1_000_000
    ops = []
    for _ in range(2 if tiny else 6):
        cfg = _random_config(rng)
        ops += [
            chsh_op("same-lambda", "sign", cfg, trials, _seed(rng)),
            chsh_op("independent", "sign", cfg, trials, _seed(rng)),
            chsh_op("independent", "quantum-mimic", cfg, trials, _seed(rng)),
            chsh_op("quantum", None, cfg, trials, _seed(rng)),
            simulate_op(cfg, trials, _seed(rng)),
        ]
    return ops


def scan_verify(rng: random.Random, tiny: bool) -> list[Op]:
    """Every scan objective, plus ``constrained scan``, at three resolutions.

    Resolutions are multiples of 8 so the pi/8 extremal configurations are
    on-lattice. At 24 refinement dominates, at 40 the res^4 lattice does.
    Resolution 48 would double the pass time, and fewer passes per run
    leave the latencies at the mercy of host noise; 96 would need several
    GB for the lattice.
    """
    resolutions, restarts = ((8, 16), 2) if tiny else ((24, 32, 40), 20)
    ops = []
    for res in resolutions:
        for objective in OBJECTIVES:
            ops.append(scan_op(objective, res, restarts, _seed(rng), via_constrained=False))
        ops.append(scan_op("constrained_e4", res, restarts, _seed(rng), via_constrained=True))
    return ops


def config_sweep(rng: random.Random, tiny: bool) -> list[Op]:
    """Hundreds of small invocations over seeded configs, plus pinned edges."""
    trials = 2_000
    makers = []  # callables of the output format, assigned after shuffling
    for _ in range(5 if tiny else 81):
        cfg = _random_config(rng)
        q = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        makers += [
            partial(correlate_op, cfg[0], cfg[2]),
            partial(constrained_op, cfg),
            partial(constrained_q_op, q),
            partial(spectrum_op, cfg),
            partial(chsh_op, "quantum", None, cfg, trials, _seed(rng)),
            partial(simulate_op, cfg, trials, _seed(rng)),
        ]
    for cfg in (TSIRELSON, T0_ZERO, COLLAPSED):
        makers += [
            partial(constrained_op, cfg),
            partial(spectrum_op, cfg),
            partial(chsh_op, "quantum", None, cfg, trials, _seed(rng)),
            partial(simulate_op, cfg, trials, _seed(rng)),
        ]
    makers.append(partial(constrained_q_op, DEGENERATE_Q))
    makers.append(partial(correlate_op, TSIRELSON[0], TSIRELSON[2]))
    rng.shuffle(makers)
    return [make("csv" if i % 2 == 0 else "json") for i, make in enumerate(makers)]


def generate(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one pass of ``workload``, deterministic in ``seed``."""
    makers = {"mc_large": mc_large, "scan_verify": scan_verify, "config_sweep": config_sweep}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return makers[workload](random.Random(f"{workload}/{seed}"), tiny)
