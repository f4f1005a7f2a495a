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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from . import kernels
from .lhv import AngleConfig
from .seeding import component_stream

BOUND_SLACK = 1e-9

# Default refinement schedule; step0 matches the resolution-24 lattice pitch.
DEFAULT_STEP0 = math.pi / 24
DEFAULT_TOL = 1e-10

# Violations stored per report are capped; n_violations counts all of them.
MAX_STORED_VIOLATIONS = 1000

# The res^3 slab is evaluated in one broadcast call with several float64
# temporaries of res^3 entries each; this cap keeps a scan near 100 MB.
MAX_RESOLUTION = 128


@dataclass(frozen=True)
class _Objective:
    name: str
    values: Callable  # (a1, a2, b1, b2 broadcastable arrays) -> ndarray, NaN where degenerate
    default_bound: float
    two_sided: bool  # True: |v| <= bound; False: v >= bound

    def evaluate(self, config: AngleConfig) -> float:
        """The objective at one configuration (NaN where degenerate)."""
        return float(self.values(*config.astuple()))


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
    violations: list = field(default_factory=list)  # [(AngleConfig, value), ...]
    n_violations: int = 0
    n_evaluated: int = 0
    n_skipped: int = 0
    bound: float | None = None


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


def _scan_slab(obj: _Objective, resolution: int, bound: float):
    """Evaluate the alpha2 = 0 slab; returns (report, flat slab values, lattice axis).

    The slab is flattened in C order of (alpha1, beta1, beta2), so the first
    extremum found is the lexicographically smallest slab index.
    """
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}]")
    ax = (np.arange(resolution) / resolution) * math.pi
    flat = obj.values(ax[:, None, None], 0.0, ax[None, :, None], ax[None, None, :]).ravel()
    config_at = lambda index: AngleConfig(*_slab_angles(ax, index).tolist())
    n_skipped = resolution * int(np.count_nonzero(np.isnan(flat)))
    idx_max, idx_min = int(np.nanargmax(flat)), int(np.nanargmin(flat))
    bad = np.flatnonzero(_violates(obj, bound, flat))
    report = ScanReport(
        objective_name=obj.name,
        grid_resolution=resolution,
        n_refinements=0,
        max_value=float(flat[idx_max]),
        argmax=config_at(idx_max),
        min_value=float(flat[idx_min]),
        argmin=config_at(idx_min),
        violations=[(config_at(i), float(flat[i])) for i in bad[:MAX_STORED_VIOLATIONS]],
        n_violations=resolution * int(bad.size),
        n_evaluated=resolution**4 - n_skipped,
        n_skipped=n_skipped,
        bound=bound,
    )
    return report, flat, ax


def grid_scan(objective: Union[str, _Objective], resolution: int, bound: float | None = None) -> ScanReport:
    """Evaluate an objective over the full angle lattice and record extrema.

    Only the resolution^3 slab alpha2 = 0 is evaluated (see the module
    docstring); ``n_evaluated``, ``n_skipped`` and ``n_violations`` count the
    full resolution^4 lattice, while argmax, argmin and the stored
    violations are slab points. Degenerate-conditioning points (possible
    only off the angle manifold, so in practice never) are skipped and
    counted, never flagged. Ties for the extrema resolve to the
    lexicographically smallest (alpha1, beta1, beta2) slab index.
    ``resolution`` must lie in [2, MAX_RESOLUTION]; ValueError otherwise.
    """
    obj = _lookup(objective)
    if bound is None:
        bound = obj.default_bound
    return _scan_slab(obj, resolution, bound)[0]


def _descend(values: Callable, starts, maximize, step0: float, tol: float):
    """Coordinate descent with step halving, every row of ``starts`` in lockstep.

    Each row of the (n, 4) ``starts`` follows its own schedule: per sweep it
    tries coordinates 0..3, +step then -step, and accepts a strict
    improvement in its own sense (``maximize`` per row) at once; NaN never
    improves; the row's step halves after a sweep without improvement, and
    the row stops once its step drops below ``tol``. Rows share only the
    array calls to ``values``. Returns the final (n, 4) angles and values.
    """
    cols = list(np.array(starts, dtype=float).T.copy())
    best = np.asarray(values(*cols), dtype=float)
    sense = np.where(maximize, 1.0, -1.0)
    best_s = np.where(np.isnan(best), -np.inf, sense * best)  # any real value improves on NaN
    step = np.full(best.size, step0)
    while (active := step >= tol).any():
        improved = np.zeros(best.size, dtype=bool)
        for i in range(4):
            for delta in (step, -step):
                cand = cols.copy()
                cand[i] = cols[i] + delta
                val = np.asarray(values(*cand), dtype=float)
                better = active & (sense * val > best_s)  # False wherever val is NaN
                cols[i] = np.where(better, cand[i], cols[i])
                best = np.where(better, val, best)
                best_s = np.where(better, sense * val, best_s)
                improved |= better
        step = np.where(improved, step, step / 2.0)
    return np.column_stack(cols), best


def refine(
    objective: Union[str, _Objective],
    start: AngleConfig,
    step0: float = DEFAULT_STEP0,
    tol: float = DEFAULT_TOL,
    maximize: bool = True,
) -> tuple[AngleConfig, float]:
    """Coordinate descent with step halving from ``start``.

    Cycles the four angles, moving by +-step whenever that strictly improves
    the objective; halves the step once no coordinate improves; stops when
    the step drops below ``tol``. The returned value is never worse than at
    the start. ``objective`` is a name in OBJECTIVES or an ``_Objective``;
    degenerate (NaN) evaluations count as non-improving.
    """
    if not (step0 > tol > 0.0):
        raise ValueError("need step0 > tol > 0")
    angles, best = _descend(_lookup(objective).values, [start.astuple()], [maximize], step0, tol)
    return AngleConfig(*angles[0].tolist()), float(best[0])


def verify_bound(
    objective: Union[str, _Objective],
    bound: float,
    resolution: int,
    n_random_restarts: int,
    seed: int = 0,
    n_grid_starts: int = 5,
) -> ScanReport:
    """Grid scan plus local refinement hunting for bound violations.

    Scans the alpha2 = 0 slab once, as :func:`grid_scan` does (counts are
    over the full resolution^4 lattice). Then refines from the
    ``n_grid_starts`` best slab points in each relevant direction and from
    ``n_random_restarts`` uniform random configurations, all starts of both
    directions in lockstep under the rule of :func:`refine`, and reports
    every refined or lattice value beyond the bound (with a 1e-9 slack).
    Deterministic in (objective, bound, resolution, n_random_restarts, seed).
    """
    obj = _lookup(objective)
    report, flat, ax = _scan_slab(obj, resolution, bound)
    order = np.argsort(flat, kind="stable")[: np.count_nonzero(~np.isnan(flat))]  # NaN sorts last
    restarts = component_stream(seed, "scan/restarts").uniform(0.0, math.pi, (n_random_restarts, 4))

    starts, senses = [], []
    for maximize in ([True, False] if obj.two_sided else [False]):
        grid = order[max(0, order.size - n_grid_starts) :] if maximize else order[:n_grid_starts]
        starts += [_slab_angles(ax, grid), restarts]
        senses += [maximize] * (grid.size + n_random_restarts)
    angles, values = _descend(obj.values, np.concatenate(starts), senses, DEFAULT_STEP0, DEFAULT_TOL)

    # Refined points in refinement order; the first strict improvement on
    # the lattice extremum wins, as with a running max/min.
    found = [(v, AngleConfig(*row)) for row, v in zip(angles.tolist(), values.tolist()) if not math.isnan(v)]
    max_value, argmax = max([(report.max_value, report.argmax), *found], key=lambda p: p[0])
    min_value, argmin = min([(report.min_value, report.argmin), *found], key=lambda p: p[0])
    bad = [(c, v) for v, c in found if _violates(obj, bound, v)]
    return replace(
        report,
        n_refinements=values.size,
        max_value=max_value,
        argmax=argmax,
        min_value=min_value,
        argmin=argmin,
        violations=(report.violations + bad)[:MAX_STORED_VIOLATIONS],
        n_violations=report.n_violations + len(bad),
    )
