import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chshlab import scan
from chshlab.lhv import tsirelson_angles
from chshlab.scan import (
    OBJECTIVES,
    DEFAULT_STEP0,
    DEFAULT_TOL,
    MAX_RESOLUTION,
    MAX_RESTARTS,
    MAX_STORED_VIOLATIONS,
    N_GRID_STARTS,
    _descend,
    _extreme_indices,
    grid_scan,
    verify_bound,
)
from oracles import coordinate_descent, lattice_objective_values, running_extremes, stable_extremes

SQRT8 = 2.0 * math.sqrt(2.0)


def coarse_objective(variant, name):
    """``name``'s objective rounded or shifted, and NaN for alpha1 > 2.5.

    Rounded values tie on many lattice points, shifted ones put the
    extrema off the lattice, and the NaN hole covers the last alpha1-planes.
    """
    base = OBJECTIVES[name]
    if variant == "rounded":
        inner = lambda a1, a2, b1, b2: np.round(base.values(a1, a2, b1, b2))
    else:
        inner = lambda a1, a2, b1, b2: base.values(a1 + 0.1, a2, b1, b2)
    return replace(base, values=lambda a1, a2, b1, b2: np.where(a1 > 2.5, np.nan, inner(a1, a2, b1, b2)))


class TestGridScan:
    def test_coverage_counts(self):
        report = grid_scan("eight_variable_sum", 6)
        assert report.n_evaluated + report.n_skipped == 6**4
        assert report.n_skipped == 0

    def test_resolution_24_attains_extrema(self):
        report = grid_scan("eight_variable_sum", 24)
        assert abs(report.max_value - SQRT8) <= 1e-12
        assert abs(report.min_value + SQRT8) <= 1e-12
        assert report.n_violations == 0

    def test_resolution_25_lattice_gap(self):
        # pi/8 multiples are off-lattice at 25, so the lattice maximum sits
        # a finite distance below the true extremum (about 1.6e-2)
        report = grid_scan("eight_variable_sum", 25)
        assert report.max_value <= SQRT8 + 1e-9
        assert report.max_value >= SQRT8 - 2e-2

    def test_constrained_bound_on_lattice(self):
        report = grid_scan("constrained_e4", 24)
        assert report.n_violations == 0
        assert -2.0 - 1e-9 <= report.min_value
        assert report.max_value <= 2.0 + 1e-9

    def test_validity_margin_nonnegative(self):
        report = grid_scan("t_validity_margin", 24)
        assert report.min_value >= -1e-9
        assert report.n_violations == 0

    def test_argmax_reevaluates(self):
        report = grid_scan("eight_variable_sum", 12)
        value = float(OBJECTIVES["eight_variable_sum"].values(*report.argmax.astuple()))
        assert abs(value - report.max_value) <= 1e-12

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            grid_scan("nonsense", 4)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            grid_scan("eight_variable_sum", 1)

    def test_rejects_huge_resolution_before_evaluating(self):
        def unreachable(*angles):
            raise AssertionError("slab evaluated above MAX_RESOLUTION")

        obj = replace(OBJECTIVES["constrained_e4"], values=unreachable)
        with pytest.raises(ValueError, match="resolution"):
            grid_scan(obj, MAX_RESOLUTION + 1)
        with pytest.raises(ValueError, match="resolution"):
            verify_bound(obj, 2.0, resolution=MAX_RESOLUTION + 1, n_random_restarts=0)

    def test_nan_points_are_skipped(self):
        # NaN wherever alpha1 == beta1: res^2 slab points, res^3 lattice points
        base = OBJECTIVES["eight_variable_sum"]
        holed = replace(base, values=lambda a1, a2, b1, b2: np.where(a1 == b1, np.nan, base.values(a1, a2, b1, b2)))
        res = 8
        ax = (np.arange(res) / res) * math.pi
        flat = np.broadcast_to(holed.values(ax[:, None, None], 0.0, ax[None, :, None], ax[None, None, :]), (res,) * 3)
        report = grid_scan(holed, res)
        assert report.n_skipped == res**3
        assert (report.max_value, report.min_value) == (np.nanmax(flat), np.nanmin(flat))
        assert float(holed.values(*report.argmax.astuple())) == report.max_value
        refined = verify_bound(holed, SQRT8, resolution=res, n_random_restarts=2, seed=1)
        assert refined.n_skipped == res**3
        assert refined.max_value >= report.max_value and refined.min_value <= report.min_value

    @pytest.mark.parametrize("restarts", [-1, MAX_RESTARTS + 1, 10**9])
    def test_rejects_restarts_outside_cap_before_evaluating(self, restarts):
        def unreachable(*angles):
            raise AssertionError("objective evaluated with restarts outside [0, MAX_RESTARTS]")

        obj = replace(OBJECTIVES["constrained_e4"], values=unreachable)
        with pytest.raises(ValueError, match="n_random_restarts"):
            verify_bound(obj, 2.0, resolution=8, n_random_restarts=restarts)

    @pytest.mark.parametrize("resolution", [6, 8, 25])
    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("eight_variable_sum", [SQRT8, 2.0]),
            ("constrained_e4", [2.0, 1.9]),
            ("t_validity_margin", [0.0, 0.5]),
        ],
    )
    def test_slab_matches_full_lattice(self, name, bounds, resolution):
        # The alpha2 = 0 slab, scaled by the resolution, reproduces a
        # brute-force loop over every resolution^4 lattice point.
        values = np.array(lattice_objective_values(name, resolution))
        valid = ~np.isnan(values)
        two_sided = OBJECTIVES[name].two_sided
        for bound in bounds:
            report = grid_scan(name, resolution, bound=bound)
            if two_sided:
                n_bad = np.count_nonzero(np.abs(values[valid]) > bound + 1e-9)
            else:
                n_bad = np.count_nonzero(values[valid] < bound - 1e-9)
            assert report.n_evaluated == np.count_nonzero(valid) == resolution**4
            assert report.n_skipped == values.size - np.count_nonzero(valid)
            assert report.n_violations == n_bad
            assert report.max_value == pytest.approx(np.nanmax(values), abs=1e-12)
            assert report.min_value == pytest.approx(np.nanmin(values), abs=1e-12)
        # the second bound of each objective is violated on the lattice
        assert report.n_violations > 0


class TestRefine:
    def test_absolute_eight_sum_from_max_violation_angles(self):
        # the Tsirelson angles sit at the minimum -2 sqrt(2), where |sum| peaks
        _, values = _descend(OBJECTIVES["eight_variable_sum"].values, [tsirelson_angles().astuple()], [False])
        assert abs(values[0] + SQRT8) <= 1e-9

    def test_never_worse_than_start(self):
        start = (0.3, 1.2, 0.8, 2.1)
        f = OBJECTIVES["constrained_e4"].values
        _, values = _descend(f, [start], [True])
        assert values[0] >= f(*start)

    def test_maximize_constrained_stays_bounded(self):
        for start in ((0.5, 1.0, 1.5, 2.0), (2.0, 0.1, 0.4, 3.0)):
            _, values = _descend(OBJECTIVES["constrained_e4"].values, [start], [True])
            assert values[0] <= 2.0 + 1e-9

    def test_minimize_direction(self):
        start = (0.7, 0.1, 0.4, 1.2)
        f = OBJECTIVES["eight_variable_sum"].values
        _, values = _descend(f, [start], [False])
        assert values[0] >= -SQRT8 - 1e-9
        assert values[0] <= f(*start)

    def test_plateau_terminates(self):
        flat = lambda a1, a2, b1, b2: np.full_like(a1, 1.5)
        start = (0.1, 0.2, 0.3, 0.4)
        angles, values = _descend(flat, [start], [True])
        assert values.tolist() == [1.5]
        assert angles.tolist() == [list(start)]
        assert coordinate_descent(lambda t: 1.5, start, DEFAULT_STEP0, DEFAULT_TOL, True) == (start, 1.5)

    def test_collapsed_family_plateau(self):
        # objective constant along two coordinates still terminates cleanly
        objective = lambda a1, a2, b1, b2: -np.cos(2.0 * (a1 - b1))
        start = (0.2, 0.9, 0.2, 1.4)
        angles, values = _descend(objective, [start], [True])
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        scalar = lambda t: -math.cos(2.0 * (t[0] - t[2]))
        ref_angles, ref_value = coordinate_descent(scalar, start, DEFAULT_STEP0, DEFAULT_TOL, True)
        assert np.max(np.abs(angles[0] - ref_angles)) <= 1e-12
        assert abs(values[0] - ref_value) <= 1e-12

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_lockstep_rows_match_single_runs_and_oracle(self, name):
        # Rows of one batch, with mixed senses, must not share step or
        # improvement state: each equals its own single-row run and the scalar rule.
        obj = OBJECTIVES[name]
        rng = np.random.default_rng(20)
        starts = rng.uniform(0.0, math.pi, (12, 4))
        maximize = np.arange(12) % 3 != 0
        angles, values = _descend(obj.values, starts, maximize)
        scalar = lambda t: float(obj.values(*t))
        for start, mx, row, value in zip(starts, maximize, angles, values):
            start = tuple(map(float, start))
            row_alone, alone = _descend(obj.values, [start], [bool(mx)])
            assert np.max(np.abs(row - row_alone[0])) <= 1e-12
            assert abs(value - alone[0]) <= 1e-12
            ref_angles, ref_value = coordinate_descent(scalar, start, DEFAULT_STEP0, DEFAULT_TOL, bool(mx))
            assert np.max(np.abs(row - ref_angles)) <= 1e-12
            assert abs(value - ref_value) <= 1e-12
            sense = 1.0 if mx else -1.0
            assert sense * value >= sense * scalar(start)


    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_one_stacked_call_per_coordinate(self, name):
        # +step and -step share one call of 2n rows, so after the initial
        # call there are half as many calls as the scalar rule's evaluations.
        obj = OBJECTIVES[name]
        scalar = lambda t: float(obj.values(*t))
        rng = np.random.default_rng(31)
        for start, maximize in zip(rng.uniform(0.0, math.pi, (4, 4)), [True, False, True, False]):
            rows = []

            def counted(*angles):
                rows.append(np.broadcast(*angles).size)
                return obj.values(*angles)

            oracle_calls = [0]

            def counted_scalar(t):
                oracle_calls[0] += 1
                return scalar(t)

            _descend(counted, [start], [maximize])
            coordinate_descent(counted_scalar, tuple(start), DEFAULT_STEP0, DEFAULT_TOL, maximize)
            assert len(rows) - 1 == (oracle_calls[0] - 1) / 2
            assert rows[0] == 1
            assert rows[1:] == [2] * (len(rows) - 1)

    def test_plus_step_wins_ties(self):
        # From a1 = pi/2, +step and -step raise cos(2 a1) by the same amount;
        # +step is taken, so the row climbs to pi, as in the scalar rule.
        objective = lambda a1, a2, b1, b2: np.cos(2.0 * a1)
        start = (math.pi / 2, 0.3, 0.6, 0.9)
        angles, values = _descend(objective, [start], [True])
        ref_angles, ref_value = coordinate_descent(
            lambda t: math.cos(2.0 * t[0]), start, DEFAULT_STEP0, DEFAULT_TOL, True
        )
        assert abs(angles[0][0] - math.pi) <= 1e-6
        assert abs(ref_angles[0] - math.pi) <= 1e-6
        assert np.max(np.abs(angles[0] - ref_angles)) <= 1e-12
        assert values[0] == pytest.approx(1.0, abs=1e-12)


class TestStartSelection:
    # Small integers and signed zeros tie often; NaN must never be picked.
    tie_heavy = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, math.nan]), min_size=1, max_size=40)
    any_floats = st.lists(st.floats(allow_infinity=True), min_size=1, max_size=40)

    @staticmethod
    def _check(values, k=N_GRID_STARTS):
        flat = np.array(values, dtype=float)
        lowest, highest = _extreme_indices(flat, k)
        ref_lowest, ref_highest = stable_extremes(flat, k)
        assert lowest.tolist() == ref_lowest.tolist()
        assert highest.tolist() == ref_highest.tolist()

    @given(tie_heavy)
    @example([math.nan] * 7 + [1.0, 1.0, 0.0])  # fewer valid values than N_GRID_STARTS
    @example([1.0] * 9)  # the k-th smallest and k-th largest coincide
    @example([0.0, -0.0] * 5)
    def test_equals_full_stable_sort_with_ties(self, values):
        self._check(values)

    @given(any_floats)
    def test_equals_full_stable_sort_on_any_floats(self, values):
        self._check(values)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_rounded_slab(self, k):
        # A real slab rounded to one decimal: thousands of values in a few ties.
        values = OBJECTIVES["eight_variable_sum"].values
        ax = (np.arange(24) / 24) * math.pi
        flat = np.round(values(ax[:, None, None], 0.0, ax[None, :, None], ax[None, None, :]).ravel(), 1)
        self._check(flat, k)


class TestVerifyBound:
    def test_constrained_smoke(self):
        report = verify_bound("constrained_e4", 2.0, resolution=8, n_random_restarts=3, seed=1)
        assert report.n_violations == 0
        assert report.n_refinements > 0
        assert report.max_value <= 2.0 + 1e-9
        assert report.min_value >= -2.0 - 1e-9

    def test_detector_finds_artificial_violations(self):
        report = verify_bound("eight_variable_sum", 2.0, resolution=8, n_random_restarts=2, seed=2)
        assert report.n_violations > 0
        assert len(report.violations) > 0

    def test_violations_reevaluate(self):
        report = verify_bound("eight_variable_sum", 2.0, resolution=8, n_random_restarts=2, seed=3)
        f = OBJECTIVES["eight_variable_sum"].values
        for config, value in report.violations[:50]:
            assert abs(f(*config.astuple()) - value) <= 1e-12

    def test_deterministic(self):
        kwargs = dict(resolution=6, n_random_restarts=4, seed=9)
        a = verify_bound("eight_variable_sum", SQRT8, **kwargs)
        b = verify_bound("eight_variable_sum", SQRT8, **kwargs)
        assert a == b

    def test_none_bound_is_the_default_bound(self):
        kwargs = dict(resolution=6, n_random_restarts=2, seed=9)
        for name, obj in OBJECTIVES.items():
            assert verify_bound(name, None, **kwargs) == verify_bound(name, obj.default_bound, **kwargs)

    def test_validity_margin_refinement(self):
        report = verify_bound("t_validity_margin", 0.0, resolution=8, n_random_restarts=3, seed=4)
        assert report.n_violations == 0
        assert report.min_value >= -1e-9

    @pytest.mark.parametrize("resolution, bound", [(8, 1.0), (16, 0.25)])
    @pytest.mark.parametrize("name", ["eight_variable_sum", "t_validity_margin"])
    @pytest.mark.parametrize("variant", ["rounded", "shifted"])
    def test_refined_pick_is_the_running_rule(self, monkeypatch, variant, name, resolution, bound):
        # Rounded values tie on more lattice points than there are grid
        # starts, so tied refined rows are other configs than the lattice
        # extremum; shifted ones put the extrema off the lattice, so refined
        # rows beat it. NaN for alpha1 > 2.5 leaves NaN rows, and the bound
        # makes violations; at res 16 the lattice alone fills the store.
        base = OBJECTIVES[name]
        coarse = coarse_objective(variant, name)
        descents = []
        monkeypatch.setattr(scan, "_descend", lambda *args: descents.append(_descend(*args)) or descents[-1])
        report = verify_bound(coarse, bound, resolution, n_random_restarts=40, seed=5)
        (rows, values), = descents
        ax = (np.arange(resolution) / resolution) * math.pi
        a1, b1, b2 = (g.ravel() for g in np.meshgrid(ax, ax, ax, indexing="ij"))  # C order of (a1, b1, b2)
        slab_rows = np.stack([a1, np.zeros_like(a1), b1, b2], axis=1)
        slab_values = coarse.values(*slab_rows.T)
        violates = lambda v: (abs(v) > bound + scan.BOUND_SLACK) if base.two_sided else (v < bound - scan.BOUND_SLACK)
        lattice_max, lattice_min, lattice_bad, _ = running_extremes(
            slab_rows, slab_values, rows[:0], values[:0], violates, resolution
        )
        best, worst, bad, n_bad = running_extremes(slab_rows, slab_values, rows, values, violates, resolution)
        assert np.isnan(values).any()
        if variant == "rounded" and base.two_sided:
            first_tie = next(tuple(r) for r, v in zip(rows.tolist(), values.tolist()) if v == lattice_max[0])
            assert first_tie != lattice_max[1]
        elif variant == "shifted":
            assert best[0] > lattice_max[0] or worst[0] < lattice_min[0]
        assert (report.max_value, report.argmax.astuple()) == best
        assert (report.min_value, report.argmin.astuple()) == worst
        assert report.n_refinements == values.size
        assert report.n_skipped == resolution * np.count_nonzero(np.isnan(slab_values))
        assert report.n_violations == n_bad
        assert [(c.astuple(), v) for c, v in report.violations] == bad[:MAX_STORED_VIOLATIONS]
        assert len(lattice_bad) >= MAX_STORED_VIOLATIONS or len(bad) > len(lattice_bad)


def test_default_schedule_constants():
    assert DEFAULT_STEP0 == pytest.approx(math.pi / 24)
    assert DEFAULT_TOL == 1e-10


class TestSlabBlocks:
    """The slab is evaluated and folded in blocks of whole alpha1-planes."""

    @staticmethod
    def _reports(monkeypatch, obj, bound, resolution, restarts=4):
        # SLAB_BLOCK = 1 gives one plane per block, 2**62 one block for the whole slab
        reports = []
        for block in (1, 2**62):
            monkeypatch.setattr(scan, "SLAB_BLOCK", block)
            reports.append((grid_scan(obj, resolution, bound), verify_bound(obj, bound, resolution, restarts, seed=5)))
        return reports

    @pytest.mark.parametrize("resolution", [8, 16, 25])
    @pytest.mark.parametrize(
        "name, bounds",
        [("eight_variable_sum", [SQRT8, 2.0]), ("constrained_e4", [2.0, 1.9]), ("t_validity_margin", [0.0, 0.5])],
    )
    def test_report_does_not_depend_on_block_size(self, monkeypatch, name, bounds, resolution):
        for bound in bounds:
            per_plane, whole = self._reports(monkeypatch, OBJECTIVES[name], bound, resolution)
            assert per_plane == whole

    @pytest.mark.parametrize("resolution, bound", [(8, 1.0), (16, 0.25)])
    @pytest.mark.parametrize("name", ["eight_variable_sum", "t_validity_margin"])
    @pytest.mark.parametrize("variant", ["rounded", "shifted"])
    def test_coarse_report_does_not_depend_on_block_size(self, monkeypatch, variant, name, resolution, bound):
        # Rounding ties values across blocks, and the planes with
        # alpha1 > 2.5 are all-NaN trailing blocks.
        (grid, refined), whole = self._reports(monkeypatch, coarse_objective(variant, name), bound, resolution, 20)
        assert (grid, refined) == whole
        assert grid.n_skipped > 0 and grid.n_violations > 0
        if resolution == 16:  # the store fills before the last plane with a value
            assert len(grid.violations) == MAX_STORED_VIOLATIONS
            assert grid.violations[-1][0].alpha1 < 2.5 - math.pi / resolution

    @pytest.mark.parametrize(
        "keep", [lambda b1, b2: b1 == b2, lambda b1, b2: (b1 == 0) & (b2 == 0)], ids=["b1 == b2", "b1 == b2 == 0"]
    )
    def test_sparse_planes_give_the_same_starts(self, monkeypatch, keep):
        # 8 or 1 valid values per plane, fewer than 2 N_GRID_STARTS: a
        # block's smallest and largest candidates overlap.
        base = OBJECTIVES["eight_variable_sum"]
        obj = replace(base, values=lambda a1, a2, b1, b2: np.where(keep(b1, b2), np.round(base.values(a1, a2, b1, b2)), np.nan))
        starts = []
        monkeypatch.setattr(scan, "_descend", lambda values, rows, senses: starts.append(rows) or _descend(values, rows, senses))
        per_plane, whole = self._reports(monkeypatch, obj, 1.0, 8, restarts=0)
        assert per_plane == whole
        assert starts[0].tolist() == starts[1].tolist()
        highest, lowest = starts[0][:N_GRID_STARTS], starts[0][N_GRID_STARTS:]  # no restarts
        assert len({tuple(r) for r in highest.tolist()}) == len({tuple(r) for r in lowest.tolist()}) == N_GRID_STARTS

    def test_all_nan_slab_raises(self, monkeypatch):
        nan = replace(OBJECTIVES["constrained_e4"], values=lambda *angles: np.full(np.broadcast(*angles).shape, np.nan))
        for block in (1, 2**62):
            monkeypatch.setattr(scan, "SLAB_BLOCK", block)
            with pytest.raises(ValueError):
                grid_scan(nan, 8)
            with pytest.raises(ValueError):
                verify_bound(nan, 2.0, 8, n_random_restarts=2)

    @pytest.mark.parametrize("resolution", [90, 91, 128])
    def test_blocks_bound_the_evaluation(self, resolution):
        # 90^2 <= SLAB_BLOCK < 91^2: from 91 on, a single plane is larger
        # than SLAB_BLOCK and is a block of its own. Two planes never fit here.
        calls = []
        base = OBJECTIVES["eight_variable_sum"]

        def recorded(a1, a2, b1, b2):
            if np.ndim(a1) == 3:  # a slab block; descent rows are 1-D
                calls.append((np.broadcast(a1, a2, b1, b2).size, np.ravel(a1)))
            return base.values(a1, a2, b1, b2)

        obj = replace(base, values=recorded)
        ax = (np.arange(resolution) / resolution) * math.pi
        for scan_once in (lambda: grid_scan(obj, resolution), lambda: verify_bound(obj, SQRT8, resolution, 2)):
            calls.clear()
            scan_once()
            assert max(size for size, _ in calls) <= max(scan.SLAB_BLOCK, resolution**2)
            assert all(size == a1.size * resolution**2 for size, a1 in calls)
            assert np.concatenate([a1 for _, a1 in calls]).tolist() == ax.tolist()
        assert len(calls) == resolution

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc/self/status")
    def test_peak_memory_does_not_grow_with_resolution(self):
        # Run in a fresh process, so the peak is this run's. After a small
        # warm-up, the res-128 scans (2.1e6 slab points each) add next to
        # nothing; evaluating a slab in one piece added about 80 MB. The
        # peak is VmHWM, the new program's own: ru_maxrss keeps across exec
        # the peak of the process that spawned it, here this test run's.
        script = textwrap.dedent("""
            from chshlab.scan import OBJECTIVES, verify_bound
            def peak_mb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
            for name, obj in OBJECTIVES.items():
                verify_bound(name, obj.default_bound, 8, 20, seed=3)
            before = peak_mb()
            for name, obj in OBJECTIVES.items():
                verify_bound(name, obj.default_bound, 128, 20, seed=3)
            print(peak_mb() - before)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(scan.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 16.0
