import math
from dataclasses import replace

import numpy as np
import pytest

from chshlab.lhv import AngleConfig, tsirelson_angles
from chshlab.scan import (
    OBJECTIVES,
    DEFAULT_STEP0,
    DEFAULT_TOL,
    MAX_RESOLUTION,
    _descend,
    grid_scan,
    refine,
    verify_bound,
)
from oracles import coordinate_descent, lattice_objective_values

SQRT8 = 2.0 * math.sqrt(2.0)


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
        value = OBJECTIVES["eight_variable_sum"].evaluate(report.argmax)
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
        cfg, value = refine("eight_variable_sum", tsirelson_angles(), maximize=False)
        assert abs(value + SQRT8) <= 1e-9

    def test_never_worse_than_start(self):
        start = AngleConfig(0.3, 1.2, 0.8, 2.1)
        f = OBJECTIVES["constrained_e4"].evaluate
        _, value = refine("constrained_e4", start)
        assert value >= f(start)

    def test_maximize_constrained_stays_bounded(self):
        for start in (AngleConfig(0.5, 1.0, 1.5, 2.0), AngleConfig(2.0, 0.1, 0.4, 3.0)):
            _, value = refine("constrained_e4", start)
            assert value <= 2.0 + 1e-9

    def test_minimize_direction(self):
        _, value = refine("eight_variable_sum", AngleConfig(0.7, 0.1, 0.4, 1.2), maximize=False)
        assert value >= -SQRT8 - 1e-9
        assert value <= OBJECTIVES["eight_variable_sum"].evaluate(AngleConfig(0.7, 0.1, 0.4, 1.2))

    def test_plateau_terminates(self):
        flat = lambda a1, a2, b1, b2: np.full_like(a1, 1.5)
        start = (0.1, 0.2, 0.3, 0.4)
        angles, values = _descend(flat, [start], [True], DEFAULT_STEP0, DEFAULT_TOL)
        assert values.tolist() == [1.5]
        assert angles.tolist() == [list(start)]
        assert coordinate_descent(lambda t: 1.5, start, DEFAULT_STEP0, DEFAULT_TOL, True) == (start, 1.5)

    def test_collapsed_family_plateau(self):
        # objective constant along two coordinates still terminates cleanly
        objective = lambda a1, a2, b1, b2: -np.cos(2.0 * (a1 - b1))
        start = (0.2, 0.9, 0.2, 1.4)
        angles, values = _descend(objective, [start], [True], DEFAULT_STEP0, DEFAULT_TOL)
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        scalar = lambda t: -math.cos(2.0 * (t[0] - t[2]))
        ref_angles, ref_value = coordinate_descent(scalar, start, DEFAULT_STEP0, DEFAULT_TOL, True)
        assert np.max(np.abs(angles[0] - ref_angles)) <= 1e-12
        assert abs(values[0] - ref_value) <= 1e-12

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            refine("eight_variable_sum", tsirelson_angles(), step0=1e-12, tol=1e-10)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_lockstep_rows_match_single_runs_and_oracle(self, name):
        # Rows of one batch, with mixed senses, must not share step or
        # improvement state: each equals its own refine run and the scalar rule.
        obj = OBJECTIVES[name]
        rng = np.random.default_rng(20)
        starts = rng.uniform(0.0, math.pi, (12, 4))
        maximize = np.arange(12) % 3 != 0
        angles, values = _descend(obj.values, starts, maximize, DEFAULT_STEP0, DEFAULT_TOL)
        scalar = lambda t: obj.evaluate(AngleConfig(*t))
        for start, mx, row, value in zip(starts, maximize, angles, values):
            start_cfg = AngleConfig(*map(float, start))
            cfg, alone = refine(name, start_cfg, maximize=bool(mx))
            assert np.max(np.abs(row - cfg.astuple())) <= 1e-12
            assert abs(value - alone) <= 1e-12
            ref_angles, ref_value = coordinate_descent(scalar, start_cfg.astuple(), DEFAULT_STEP0, DEFAULT_TOL, bool(mx))
            assert np.max(np.abs(row - ref_angles)) <= 1e-12
            assert abs(value - ref_value) <= 1e-12
            sense = 1.0 if mx else -1.0
            assert sense * value >= sense * scalar(start_cfg.astuple())


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
        f = OBJECTIVES["eight_variable_sum"].evaluate
        for config, value in report.violations[:50]:
            assert abs(f(config) - value) <= 1e-12

    def test_deterministic(self):
        kwargs = dict(resolution=6, n_random_restarts=4, seed=9)
        a = verify_bound("eight_variable_sum", SQRT8, **kwargs)
        b = verify_bound("eight_variable_sum", SQRT8, **kwargs)
        assert a == b

    def test_validity_margin_refinement(self):
        report = verify_bound("t_validity_margin", 0.0, resolution=8, n_random_restarts=3, seed=4)
        assert report.n_violations == 0
        assert report.min_value >= -1e-9


def test_default_schedule_constants():
    assert DEFAULT_STEP0 == pytest.approx(math.pi / 24)
    assert DEFAULT_TOL == 1e-10
