"""Grid scans and derivative-free refinement over analyzer-angle space.

Used to verify the bound structure of the three scalar objectives:

* ``constrained_e4``       -- the conditioned four-variable expectation,
                              bounded by [-2, 2];
* ``eight_variable_sum``   -- q1 + q2 + q3 - q4, bounded by +-2 sqrt(2);
* ``t_validity_margin``    -- t0 - |E|, which must stay nonnegative for the
                              two-point outcome law to be a probability
                              distribution.

All objectives are pi-periodic in each angle, so the lattice
{(i/resolution) pi : 0 <= i < resolution}^4 covers the whole space. At the
default resolution 24 every multiple of pi/8 is on-lattice, which places
the known extremal configurations exactly on grid points.

Every objective also depends only on angle differences, so shifting all
four angles by -alpha2 maps each lattice point onto one with alpha2 = 0,
and exactly resolution lattice points land on each point of that slab.
Scans therefore evaluate only the resolution^3 slab alpha2 = 0; the counts
they report (points evaluated, skipped and in violation) are resolution
times the slab counts, i.e. they still count the full resolution^4
lattice. Translated lattice points agree with their slab point up to
floating-point rounding of the angle differences.

The slab is evaluated in blocks of whole alpha1-planes, at most SLAB_BLOCK
points each or one plane, and each block is folded into a running report
in index order. So a scan holds max(SLAB_BLOCK, resolution^2) values at a
time, and every value is the same ufuncs on the same operands as in one piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import kernels
from .lhv import AngleConfig
from .seeding import component_stream

BOUND_SLACK = 1e-9

# Refinement schedule: first step (the resolution-24 lattice pitch), stopping
# step, and the best lattice points per direction verify_bound refines from.
DEFAULT_STEP0 = math.pi / 24
DEFAULT_TOL = 1e-10
N_GRID_STARTS = 5

# Violations stored per report are capped; n_violations counts all of them.
MAX_STORED_VIOLATIONS = 1000

# Points per slab block: whole alpha1-planes up to this many, or one plane
# once a plane (res^2 points) is larger, as MC_CHUNK bounds the Monte Carlo.
SLAB_BLOCK = 1 << 13

# A scan evaluates res^3 slab points: this cap bounds that to 2.1e6
# evaluations, 15-105 ms per objective on a 2-vCPU x86_64 VM.
MAX_RESOLUTION = 128

# verify_bound draws (restarts, 4) angles and descends from 2 x restarts rows
# in lockstep, with temporaries of 4 x restarts entries; this cap keeps a
# scan to tens of MB.
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class _Objective:
    name: str
    values: Callable  # (a1, a2, b1, b2 broadcastable arrays) -> ndarray, NaN where degenerate
    default_bound: float
    two_sided: bool  # True: |v| <= bound; False: v >= bound


OBJECTIVES: dict[str, _Objective] = {
    "constrained_e4": _Objective(
        name="constrained_e4",
        values=lambda a1, a2, b1, b2: kernels.e4(*kernels.q_quad(a1, a2, b1, b2)),
        default_bound=2.0,
        two_sided=True,
    ),
    "eight_variable_sum": _Objective(
        name="eight_variable_sum",
        values=lambda a1, a2, b1, b2: kernels.eight_variable_sum(*kernels.q_quad(a1, a2, b1, b2)),
        default_bound=2.0 * math.sqrt(2.0),
        two_sided=True,
    ),
    "t_validity_margin": _Objective(
        name="t_validity_margin",
        values=lambda a1, a2, b1, b2: (
            kernels.t0(a1, a2, b1, b2) - np.abs(kernels.eight_variable_sum(*kernels.q_quad(a1, a2, b1, b2)))
        ),
        default_bound=0.0,
        two_sided=False,
    ),
}


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a lattice scan (optionally sharpened by refinement)."""

    objective_name: str
    grid_resolution: int
    n_refinements: int
    max_value: float
    argmax: AngleConfig
    min_value: float
    argmin: AngleConfig
    violations: list  # [(AngleConfig, value), ...]
    n_violations: int
    n_evaluated: int
    n_skipped: int
    bound: float


def _lookup(objective: Union[str, _Objective]) -> _Objective:
    if isinstance(objective, _Objective):
        return objective
    try:
        return OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        ) from None


def _violates(obj: _Objective, bound: float, values):
    """Elementwise: is the value beyond the bound (with BOUND_SLACK)? NaN never is."""
    if obj.two_sided:
        return np.abs(values) > bound + BOUND_SLACK
    return values < bound - BOUND_SLACK


def _slab_angles(ax: np.ndarray, index):
    """Angles (alpha1, 0, beta1, beta2) of flat slab index/indices, last axis 4."""
    i1, i3, i4 = np.unravel_index(index, (ax.size,) * 3)
    return np.stack([ax[i1], np.zeros_like(ax[i1]), ax[i3], ax[i4]], axis=-1)


class _Fold:
    """The report rule over value blocks in index order; NaN never wins or violates.

    Keeps the first extremum each way as (value, index), so a later block
    wins only if strictly better; the NaN and violation counts; the first
    MAX_STORED_VIOLATIONS violations as (index, value); and the
    :func:`_extreme_indices` candidates of blocks added with k > 0.
    """

    def __init__(self, obj: _Objective, bound: float):
        self.obj, self.bound = obj, bound
        self.size = self.n_nan = self.n_bad = 0
        self.max = self.min = None
        self.bad, self.candidates = [], []  # candidates: [(indices, values), ...]

    def add(self, block: np.ndarray, k: int = 0) -> None:
        n_nan = int(np.count_nonzero(np.isnan(block)))
        if n_nan < block.size:
            argmax, argmin = (np.nanargmax, np.nanargmin) if n_nan else (np.argmax, np.argmin)
            i, j = int(argmax(block)), int(argmin(block))
            if self.max is None or block[i] > self.max[0]:
                self.max = (float(block[i]), self.size + i)
            if self.min is None or block[j] < self.min[0]:
                self.min = (float(block[j]), self.size + j)
        bad = np.flatnonzero(_violates(self.obj, self.bound, block))
        self.bad += [(self.size + i, float(block[i])) for i in bad[: MAX_STORED_VIOLATIONS - len(self.bad)].tolist()]
        if k:
            keep = np.zeros(block.size, dtype=bool)  # a mask, not np.union1d, whose first call costs 1.6 MB
            keep[np.concatenate(_extreme_indices(block, k))] = True
            self.candidates.append((self.size + np.flatnonzero(keep), block[keep]))
        self.size += block.size
        self.n_nan += n_nan
        self.n_bad += bad.size


def _scan_slab(obj: _Objective, resolution: int, bound: float | None, k: int = 0):
    """The alpha2 = 0 slab, folded with ``k`` in blocks of whole alpha1-planes, and the lattice axis.

    A ``bound`` of None stands for the objective's ``default_bound``.
    """
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}]")
    ax = (np.arange(resolution) / resolution) * math.pi
    fold = _Fold(obj, obj.default_bound if bound is None else bound)
    planes = max(1, SLAB_BLOCK // resolution**2)
    for lo in range(0, resolution, planes):
        fold.add(obj.values(ax[lo : lo + planes, None, None], 0.0, ax[None, :, None], ax[None, None, :]).ravel(), k)
    return fold, ax


def _report(fold: _Fold, resolution: int, ax, angles, values) -> ScanReport:
    """The report of the slab ``fold`` with the refined (angles, values) rows folded in as one last block.

    So the first extremum in index order wins: the lattice wins ties, the
    smallest slab index among slab points, the first row among refined
    rows. A slab point counts resolution times, a row once. ValueError if
    every value is NaN.
    """
    n_slab, n_skipped, n_slab_bad = fold.size, resolution * fold.n_nan, fold.n_bad
    fold.add(values)
    if fold.max is None:
        raise ValueError("All-NaN slice encountered")
    config_at = lambda i: AngleConfig(*(_slab_angles(ax, i) if i < n_slab else angles[i - n_slab]).tolist())
    return ScanReport(
        objective_name=fold.obj.name,
        grid_resolution=resolution,
        n_refinements=values.size,
        max_value=fold.max[0],
        argmax=config_at(fold.max[1]),
        min_value=fold.min[0],
        argmin=config_at(fold.min[1]),
        violations=[(config_at(i), v) for i, v in fold.bad],
        n_violations=resolution * n_slab_bad + (fold.n_bad - n_slab_bad),
        n_evaluated=resolution**4 - n_skipped,
        n_skipped=n_skipped,
        bound=fold.bound,
    )


def grid_scan(objective: Union[str, _Objective], resolution: int, bound: float | None = None) -> ScanReport:
    """Evaluate an objective over the full angle lattice and record extrema.

    Only the resolution^3 slab alpha2 = 0 is evaluated, in blocks (see the
    module docstring); ``n_evaluated``, ``n_skipped`` and ``n_violations``
    count the full resolution^4 lattice, while argmax, argmin and the
    stored violations are slab points. Degenerate-conditioning points
    (possible only off the angle manifold, so in practice never) are
    skipped and counted, never flagged. The report is :func:`_report` with
    no refined rows: ties go to the smallest (alpha1, beta1, beta2) slab
    index, whatever SLAB_BLOCK is. ValueError unless ``resolution`` lies in
    [2, MAX_RESOLUTION], and if every slab value is NaN.
    """
    fold, ax = _scan_slab(_lookup(objective), resolution, bound)
    return _report(fold, resolution, ax, np.empty((0, 4)), np.empty(0))


def _extreme_indices(flat: np.ndarray, k: int):
    """Flat indices of the k smallest and the k largest non-NaN values.

    Exactly ``order[:k]`` and ``order[-k:]`` of the stable argsort of
    ``flat`` with its NaNs (which sort last) dropped: ascending by value,
    ties in index order. Only the values at or beyond the k-th smallest
    and k-th largest are sorted, found by one partition.
    """
    n_valid = flat.size - int(np.count_nonzero(np.isnan(flat)))
    if n_valid <= k:
        order = np.argsort(flat, kind="stable")[:n_valid]
        return order, order
    lo, hi = np.partition(flat, (k - 1, n_valid - k))[[k - 1, n_valid - k]]
    low, high = np.flatnonzero(flat <= lo), np.flatnonzero(flat >= hi)  # index order, NaN in neither
    return (
        low[np.argsort(flat[low], kind="stable")[:k]],
        high[np.argsort(flat[high], kind="stable")[-k:]],
    )


def _descend(values: Callable, starts, maximize):
    """Coordinate descent with step halving, every row of ``starts`` in lockstep.

    Each row of the (n, 4) ``starts`` follows its own schedule: per sweep it
    visits coordinates 0..3, with +step and -step from the same point in one
    call; -step only where +step did not improve. A move is taken if it
    strictly improves in the row's own sense (``maximize`` per row); NaN
    never improves; the row's step starts at DEFAULT_STEP0, halves after a
    sweep without improvement, and the row stops once it drops below
    DEFAULT_TOL. Rows share only the array calls to ``values``: one on the
    n starts, then one per coordinate per sweep on 2n rows, the n +step
    candidates followed by the n -step candidates. Returns the final (n, 4)
    angles and values; a returned value is never worse than its start.
    """
    x = np.array(starts, dtype=float).T
    n = x.shape[1]
    start_values = np.asarray(values(*x), dtype=float)
    sense = np.where(maximize, 1.0, -1.0)
    best_s = np.where(np.isnan(start_values), -np.inf, sense * start_values)  # any real value improves on NaN
    step = np.full(n, DEFAULT_STEP0)
    pair = np.concatenate([x, x], axis=1)  # (4, 2n): both halves hold the current angles
    angles = list(pair)
    halves = [a.reshape(2, n) for a in angles]  # the same rows as (2, n) views
    while (active := step >= DEFAULT_TOL).any():
        sweep_start = best_s.copy()  # a row improved in this sweep iff its best_s rose
        signed = np.concatenate([step, -step])
        live = np.where(active, sense, np.nan)  # a stopped row's values turn NaN, which never improves
        live2 = np.concatenate([live, live])
        for i in range(4):
            cand = angles.copy()
            cand[i] = angles[i] + signed  # the first n entries take +step, the last n -step
            val_s = (live2 * values(*cand)).reshape(2, n)
            gain = val_s > best_s  # False wherever the value is NaN
            moved = cand[i].reshape(2, n)
            # -step first, then +step over it: +step wins where both improve
            np.copyto(best_s, val_s[1], where=gain[1])
            np.copyto(best_s, val_s[0], where=gain[0])
            np.copyto(halves[i], moved[1], where=gain[1])  # both halves take the move
            np.copyto(halves[i], moved[0], where=gain[0])
        step = np.where(best_s > sweep_start, step, step / 2.0)
    # best_s is exactly sense * value; it stays -inf only in rows that never improved
    return pair[:, :n].T.copy(), np.where(np.isneginf(best_s), start_values, sense * best_s)


def verify_bound(
    objective: Union[str, _Objective],
    bound: float | None,
    resolution: int,
    n_random_restarts: int,
    seed: int = 0,
) -> ScanReport:
    """Grid scan plus local refinement hunting for bound violations.

    Scans the alpha2 = 0 slab once, as :func:`grid_scan` does (counts are
    over the full resolution^4 lattice). Then refines from the
    N_GRID_STARTS best slab points in each relevant direction, merged from
    each block's best, and from ``n_random_restarts`` uniform random
    configurations, all starts of both directions in lockstep in one
    :func:`_descend` call. The report is :func:`_report` of the slab fold
    with the refined rows folded in last. A ``bound`` of None stands for
    the objective's ``default_bound``, as in :func:`grid_scan`.
    Deterministic in (objective, bound, resolution, n_random_restarts, seed).
    ``n_random_restarts`` must lie in [0, MAX_RESTARTS]; ValueError otherwise.
    """
    if not 0 <= n_random_restarts <= MAX_RESTARTS:
        raise ValueError(f"n_random_restarts must lie in [0, {MAX_RESTARTS}]")
    obj = _lookup(objective)
    fold, ax = _scan_slab(obj, resolution, bound, N_GRID_STARTS)
    # a slab point among the k best overall, ties in index order, is among them in its block
    indices, candidates = (np.concatenate(c) for c in zip(*fold.candidates))
    lowest, highest = (indices[i] for i in _extreme_indices(candidates, N_GRID_STARTS))
    restarts = component_stream(seed, "scan/restarts").uniform(0.0, math.pi, (n_random_restarts, 4))

    starts, senses = [], []
    for maximize in ([True, False] if obj.two_sided else [False]):
        grid = highest if maximize else lowest
        starts += [_slab_angles(ax, grid), restarts]
        senses += [maximize] * (grid.size + n_random_restarts)
    angles, values = _descend(obj.values, np.concatenate(starts), senses)
    return _report(fold, resolution, ax, angles, values)
