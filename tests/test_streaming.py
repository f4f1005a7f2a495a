"""Streaming Monte Carlo: the cosine-free sign response and its angle
check, chunk boundaries, exact count-based estimates and bounded memory."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import cli, kernels, lhv, montecarlo
from chshlab.chsh_operator import t_distribution, t_estimate
from chshlab.lhv import (
    AngleConfig,
    chsh_independent,
    chsh_same_lambda,
    correlation_mc,
    quantum_chsh_independent,
)
from chshlab.montecarlo import MC_CHUNK, cut_mask, draw_raw32, estimate_from_counts, int_rule, rule_estimate
from chshlab.quantum import joint_distribution, product_estimate

from oracles import (
    cos_sign_response,
    cut_parity,
    dense_pair_products,
    dense_quantum_independent,
    dense_sign_correlation,
    dense_sign_independent,
    dense_sign_same_lambda,
    dense_two_point,
    raw_halves,
    same_lambda_is_plus,
    signs,
    trials_by_rule,
    uniform_law,
    uniforms32,
)

moderate = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
angles = st.one_of(moderate, st.floats(min_value=-lhv.MAX_ANGLE, max_value=lhv.MAX_ANGLE))
draws = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50)
LAST = 2**32 - 1  # the last draw


def _response(angle, k):
    # A's +-1 response to the draws k, through the cut rule of the angle's
    # flip points that every sign-model estimator combines into its outcomes.
    return signs(cut_mask(*lhv._rules([angle])[0], uniform_law(k)))


def _want(angle, k):
    # The cosine rule itself at lambda = pi (k 2^-32), the lambda of draw k.
    return cos_sign_response(angle, uniform_law(k, math.pi))


def _draws_near(k0: int, w: int) -> np.ndarray:
    # The 2w + 1 consecutive draws centred on k0 that lie in [0, 2^32).
    k = k0 + np.arange(-w, w + 1, dtype=np.int64)
    return k[(k >= 0) & (k <= LAST)]


def _around(x: float, k: int) -> np.ndarray:
    # The 2k + 1 consecutive doubles centred on x >= 0 that lie in [0, pi).
    lam = (np.asarray(x, dtype=float).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)
    return lam[(lam >= 0.0) & (lam < math.pi)]


class TestSignResponse:
    @given(angles, draws)
    def test_matches_cos_rule(self, angle, k):
        k = np.array(k, dtype=np.uint32)
        got = _response(angle, k)
        assert got.dtype == np.int8
        assert np.array_equal(got, _want(angle, k))

    @settings(max_examples=200)
    @given(moderate)
    def test_arc_endpoints_to_the_ulp(self, angle):
        # The draws within 256 of each arc endpoint angle +- pi/4 (+ j pi)
        # that lies in [0, pi): one draw either way is the grid's ulp.
        ks = []
        for edge in (angle - math.pi / 4, angle + math.pi / 4):
            for j in range(-2, 3):
                for center in (edge + j * math.pi, edge % math.pi):
                    if 0.0 <= center < math.pi:
                        ks.append(_draws_near(int(center / math.pi * 2**32), 256))
        k = np.concatenate([_draws_near(0, 4), *ks])
        assert np.array_equal(_response(angle, k), _want(angle, k))

    def test_scalar_and_shaped_lambda(self):
        k = (np.arange(24, dtype=np.uint32) * np.uint32(178_956_971)).reshape(2, 3, 4)
        assert np.array_equal(_response(0.7, k), _want(0.7, k))
        assert _response(math.pi / 4, np.uint32(0)) == 1
        assert _response(math.pi / 4, np.uint32(0)).shape == ()

    def test_cos_rule_runs_only_near_endpoints(self, monkeypatch):
        # The rule runs only while the flip points are derived, on the shared
        # grid and on the gaps split around each flip, and never on the draws:
        # its work is the same at 1e5 and 1e6 draws.
        cos_rule = lhv._cos_rule
        for angle in (1.3, math.pi / 4, -2.0, 1e6, math.radians(4455), *TestFlipPoints.WRAPPED):
            points = []
            for n in (100_000, 1_000_000):
                k = draw_raw32(np.random.default_rng(0), n)
                seen = []

                def counted(a, x):
                    assert not np.shares_memory(x, k)
                    seen.append(np.broadcast(np.asarray(a), np.asarray(x)).size)
                    return cos_rule(a, x)

                monkeypatch.setattr(lhv, "_cos_rule", counted)
                got = _response(angle, k)
                monkeypatch.setattr(lhv, "_cos_rule", cos_rule)
                assert np.array_equal(got, _want(angle, k))
                points.append(sum(seen))
            assert 0 < points[0] == points[1] < 10_000


class TestFlipPoints:
    GRID = np.arange(20_000, dtype=np.int64) * 214_749  # a dense grid of draws up to the last
    # Endpoints within rounding of pi whose flip rounding moved to near 0.
    WRAPPED = [-117.0243263462198, -60.47565858160352]
    # Endpoints within rounding of 0 whose rule, on the doubles, flips just
    # above 0 and, as fl(angle - lam) rounds, again just below pi.
    THREE = [-5214 * math.pi / 8, math.radians(4455), math.radians(-6435)]

    def _check(self, angle):
        r0, flips = lhv._rules([angle])[0]
        assert flips == sorted(flips) and all(0.0 < t < 1.0 for t in flips)
        ks = [t * 2**32 for t in flips]
        assert all(k == int(k) for k in ks)  # each flip is u = k 2^-32 of a draw k
        assert lhv._cos_rule(angle, 0.0) == r0
        near = [_draws_near(int(x), 256) for x in (0, LAST, *ks)]
        k = np.concatenate([self.GRID, *near])
        assert np.array_equal(_response(angle, k), _want(angle, k))
        return [int(x) for x in ks]

    def test_multiples_of_pi_over_8(self):
        # Multiples of pi/8 put flips on lambda = 0 (alpha1 = pi/4 of the
        # Tsirelson angles) and on every multiple of pi/8 in [0, pi).
        for k in range(-16, 17):
            self._check(k * math.pi / 8)

    @pytest.mark.parametrize("angle", [1e6, -1e6, 1e-300, -1e-300, 0.0, 5e-324, *WRAPPED])
    def test_extreme_angles(self, angle):
        self._check(angle)

    @pytest.mark.parametrize("angle", THREE)
    def test_three_flips(self, angle):
        # The third flip of these angles lies above the last draw, whose
        # lambda is about 7.3e-10 below pi: on the draws they flip twice.
        assert self._check(angle) == [1, 2**31 + 1]

    def test_random_angles(self):
        rng = np.random.default_rng(20)
        for angle in np.concatenate([rng.uniform(-2 * math.pi, 2 * math.pi, 500), rng.uniform(-1e6, 1e6, 500)]):
            self._check(float(angle))

    def test_at_most_five_rule_calls(self, monkeypatch):
        # Each pass narrows every gap 128-fold, and a grid gap spans at most
        # 2^25 draws: one call for the grid and at most 4 to split them.
        calls = []
        cos_rule = lhv._cos_rule
        monkeypatch.setattr(lhv, "_cos_rule", lambda a, lam: calls.append(1) or cos_rule(a, lam))
        rng = np.random.default_rng(21)
        configs = [rng.uniform(-2 * math.pi, 2 * math.pi, (200, 4)), rng.uniform(-1e6, 1e6, (50, 4))]
        configs.append(np.radians(22.5 * rng.integers(-16, 17, (50, 4))))
        for angles in np.concatenate(configs).tolist() + [self.WRAPPED, self.THREE]:
            calls.clear()
            lhv._rules(angles)
            assert 0 < len(calls) <= 5

    def test_rejects_angles_beyond_the_limit(self):
        # Each sign-model entry point checks its angles in _rules; the
        # CLI's angle flags hold the same constant in their own unit.
        assert cli.MAX_ANGLE is lhv.MAX_ANGLE
        rng = np.random.default_rng(0)
        entry_points = (
            lambda a: correlation_mc(a, 0.3, 1000, rng),
            lambda a: chsh_same_lambda(AngleConfig(0.1, a, 0.3, 0.5), 1000, rng),
            lambda a: chsh_independent(AngleConfig(0.1, 0.2, 0.3, a), 1000, rng),
        )
        beyond = (math.nextafter(lhv.MAX_ANGLE, math.inf), -math.nextafter(lhv.MAX_ANGLE, math.inf), 1e300)
        for run in entry_points:
            for angle in (lhv.MAX_ANGLE, -lhv.MAX_ANGLE):
                run(angle)
            for angle in beyond + (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    run(angle)


class TestCutRules:
    @settings(max_examples=200)
    @given(st.booleans(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
    def test_cut_mask_matches_parity(self, r0, cuts):
        cuts = sorted(cuts)
        u = np.concatenate([np.linspace(0.0, 1.0, 1001)] + [_around(t, 4) for t in cuts])
        got = cut_mask(r0, cuts, u)
        assert got.dtype == np.bool_ and got.shape == u.shape
        assert np.array_equal(got, cut_parity(r0, cuts, u))
        for x in (0.0, 0.5, 1.0, *cuts):
            got = cut_mask(r0, cuts, np.asarray(x))
            assert got.shape == () and got == cut_parity(r0, cuts, x)

    def test_empty_cuts_give_a_constant_mask(self):
        u = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        for r0 in (False, True):
            got = cut_mask(r0, [], u)
            assert got.dtype == np.bool_ and got.shape == (3, 4) and np.all(got == r0)
            assert cut_mask(r0, [], np.asarray(0.5)).shape == ()

    # The four pair products' +1 rules of the independent-pairs protocol.
    PAIRS = staticmethod(lambda *a: [a[i] != a[j] for i, j in kernels.PAIRS])

    def _check_combined(self, angles):
        rules = lhv._rules(angles)
        flips = [int(t * 2**32) for _, rule_flips in rules for t in rule_flips]
        k = np.concatenate([_draws_near(0, 4), _draws_near(LAST, 4)] + [_draws_near(x, 4) for x in flips])
        responses = [_want(a, k) == 1 for a in angles]
        for f in (same_lambda_is_plus, self.PAIRS):
            want = np.atleast_2d(f(*responses))
            got = lhv._combined(rules, f)
            assert len(got) == len(want)
            for (r0, cuts), row in zip(got, want):
                assert cuts == sorted(cuts) and all(0.0 < t < 1.0 for t in cuts)
                assert np.array_equal(cut_mask(r0, cuts, uniform_law(k)), row)

    def test_combined_random_configs(self):
        rng = np.random.default_rng(24)
        configs = [rng.uniform(-2 * math.pi, 2 * math.pi, (100, 4)), rng.uniform(-1e6, 1e6, (50, 4))]
        for angles in np.concatenate(configs).tolist():
            self._check_combined(angles)

    @pytest.mark.parametrize(
        "angles",
        [
            [1e6, -1e6, 3.0, 1e-300],
            [*TestFlipPoints.WRAPPED, 0.3, 1.2],
            TestFlipPoints.THREE + [0.3],
            [math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8],
            [0.3] * 4,
            [0.6, 0.6, 0.1, 0.1],
            # Consecutive doubles: their flips share draws or are adjacent draws.
            (np.float64(0.5).view(np.int64) + np.arange(4)).view(np.float64).tolist(),
        ],
    )
    def test_combined_special_configs(self, angles):
        self._check_combined(angles)


@pytest.mark.parametrize("shape", [None, (1000,), (2**15 + 5, 4)])
def test_pi_times_random_is_uniform(shape):
    # The sign model derives its flips at lambda = pi (k 2^-32) on the 32-bit
    # halves k of the raw outputs, which is (pi 2^-32) k bit for bit: the
    # float law at span pi of the draw_raw32 halves that rule_estimate reads.
    # None draws a single lambda, of shape ().
    assert lhv.DRAW_STEP is montecarlo.DRAW_STEP == 2.0**-32
    shape = () if shape is None else shape
    k = raw_halves(np.random.default_rng(7), math.prod(shape)).reshape(shape)
    want = np.asarray((math.pi * 2.0**-32) * k)
    assert np.array_equal(np.asarray(math.pi * (k * 2.0**-32)).view(np.int64), want.view(np.int64))
    drawn = draw_raw32(np.random.default_rng(7), k.size)
    assert drawn.shape == (k.size,) and drawn.dtype == np.uint32
    assert np.array_equal(np.asarray(uniform_law(drawn.reshape(shape), math.pi)).view(np.int64), want.view(np.int64))
    if len(shape) == 2:
        # rule_estimate reads the draws in blocks of 2^15 trials, rule-major
        # within a block: here one whole block, then a partial one of 5
        # trials. Rule j reads row j of each block, u = 2^-32 k, and a trial
        # is valued by how many rules hold. Distinct cuts tell the rows apart.
        assert MC_CHUNK == 2**15
        n, d = shape
        flat = k.ravel()
        by_rule = np.concatenate([flat[: d * 2**15].reshape(d, 2**15), flat[d * 2**15 :].reshape(d, 5)], axis=1)
        assert np.array_equal(trials_by_rule(flat, d), by_rule.T)
        values = (0, 1, 2, 3, 4)
        cuts = [0.2, 0.45, 0.6, 0.85]
        held = sum((2.0**-32 * by_rule[j] < c).astype(int) for j, c in enumerate(cuts))
        dense = estimate_from_counts(values, np.bincount(held, minlength=len(values)).tolist())
        rules = [(True, [c]) for c in cuts]
        assert rule_estimate(n, np.random.default_rng(7), rules, values) == dense


class TestDrawUniforms:
    # Every Monte Carlo uniform is the float law oracles.uniform_law of one
    # 32-bit half k of draw_raw32; the estimators read k itself.
    def test_first_uniforms_are_the_raw_halves(self):
        # Raw PCG64 streams are stable across numpy versions (NEP 19): the
        # first two outputs of seed 7, low half first.
        first = [0xA00641A9F1E54A8B, 0xE5AFCDBCAF266A95]
        assert np.random.default_rng(7).bit_generator.random_raw(2).tolist() == first
        halves = [h for x in first for h in (x & 0xFFFFFFFF, x >> 32)]
        got = draw_raw32(np.random.default_rng(7), 4)
        assert got.dtype == np.uint32 and got.tolist() == halves
        assert uniform_law(got).tolist() == [h * 2.0**-32 for h in halves]
        assert np.array_equal(uniform_law(got), uniforms32(np.random.default_rng(7), 4))
        assert uniform_law(got, math.pi).tolist() == [math.pi * (h * 2.0**-32) for h in halves]

    def test_odd_count_drops_the_last_half(self):
        # 3 halves take two outputs and drop the high half of the second;
        # the next draw starts on the low half of the third.
        rng, want = np.random.default_rng(7), raw_halves(np.random.default_rng(7), 6)
        assert np.array_equal(draw_raw32(rng, 3), want[:3])
        assert np.array_equal(draw_raw32(rng, 2), want[4:])

    def test_rejects_32_bit_raw_outputs(self):
        rng = np.random.Generator(np.random.MT19937(7))
        with pytest.raises(ValueError, match="MT19937"):
            draw_raw32(rng, 4)
        with pytest.raises(ValueError, match="MT19937"):
            chsh_same_lambda(CFG, 1000, rng)


@functools.cache
def _neighbourhood(seed: int) -> list:
    # Random cuts in [0, 1), the edges 0, -0.0, 1 and beyond, and k 2^-32
    # and one ulp either side of it for random and extreme k.
    rng = np.random.default_rng(seed)
    k = np.concatenate([rng.integers(0, 2**32, 8000), [0, 1, 2, 2**31, 2**32 - 2, 2**32 - 1]])
    on = uniform_law(k.astype(np.uint32))
    edges = [0.0, -0.0, -1e-300, -1.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 2.0]
    edges += [math.inf, -math.inf]
    return rng.uniform(0.0, 1.0, 4000).tolist() + edges + [
        float(x) for u in on for x in (np.nextafter(u, -np.inf), u, np.nextafter(u, np.inf))
    ]


def _threshold(t: float) -> int:
    # K(t) of int_rule's one-cut rule: 0 where it toggles r0, 2^32 where it drops the cut.
    r, ks = int_rule(False, [t])
    return ks[0] if ks else 0 if r else 2**32


class TestThresholds:
    def test_threshold_brackets_each_cut(self):
        # (K - 1) 2^-32 < t <= K 2^-32 on the float law, where K - 1, resp.
        # K, is a 32-bit half. u = k 2^-32 increases with k, so every k < K
        # gives u < t and every k >= K gives u >= t: the check is exact.
        cuts = _neighbourhood(28)
        ks = np.array([_threshold(t) for t in cuts])
        cuts = np.array(cuts)
        assert ((ks >= 0) & (ks <= 2**32)).all()
        below, reached = ks > 0, ks < 2**32
        assert (uniform_law((ks[below] - 1).astype(np.uint32)) < cuts[below]).all()
        assert (uniform_law(ks[reached].astype(np.uint32)) >= cuts[reached]).all()
        assert (ks[cuts <= 0.0] == 0).all() and (ks[cuts > 1.0 - 2.0**-32] == 2**32).all()
        assert _threshold(math.nan) == 2**32

    @settings(max_examples=100)
    @given(r0=st.booleans(), picks=st.lists(st.integers(0, 10**6), max_size=5))
    def test_int_rule_reads_k_as_the_float_rule_reads_u(self, r0, picks):
        # Cuts from the neighbourhood list, edges included; k at, and one
        # either side of, each kept threshold, and the extreme halves.
        pool = _neighbourhood(29)
        cuts = sorted(pool[i % len(pool)] for i in picks)
        r, ks = int_rule(r0, cuts)
        assert all(type(x) is int and 0 < x < 2**32 for x in ks)
        near = {x + j for x in ks for j in (-1, 0, 1)} | {0, 1, 2**32 - 1}
        k = np.array(sorted(x for x in near if x < 2**32), dtype=np.uint32)
        assert np.array_equal(cut_mask(r, ks, k), cut_parity(r0, cuts, uniform_law(k)))

    @pytest.mark.parametrize(
        "r0, cuts",
        [(True, [0.0]), (False, [-0.0]), (True, [-0.5, 0.3]), (True, [1.0]), (False, [1.5]),
         (True, [0.0, 0.2, 1.0]), (False, [0.4, 0.4]), (True, [-1.0, 0.0, 2.0, math.inf])],
        ids=["0", "-0.0", "below-0", "span", "past-span", "0-and-span", "twice", "edges-only"],
    )
    def test_cuts_outside_the_draws_against_the_float_oracle(self, r0, cuts):
        # A cut <= 0 holds on every draw, one >= 1 on none: int_rule drops
        # both, so each compare is against a uint32, and rule_estimate counts
        # as the float rule on oracles.uniform_law does.
        n, values = C + 1, (-1, 1)
        held = cut_parity(r0, cuts, uniform_law(raw_halves(np.random.default_rng(n), n)))
        dense = estimate_from_counts(values, [n - int(held.sum()), int(held.sum())])
        assert rule_estimate(n, np.random.default_rng(n), [(r0, cuts)], values) == dense
        assert all(0 < x < 2**32 for x in int_rule(r0, cuts)[1])


C = MC_CHUNK
SIZES = [2, 3, C - 1, C, C + 1, 3 * C + 5, 3 * C + 7]
CFG = AngleConfig(0.3, 1.1, 0.7, 2.0)
T_CFG = AngleConfig(1.0, 0.3, 2.1, 0.9)


def _assert_matches(est, n, dense):
    mean, stderr = dense
    assert est.n_samples == n
    assert est.mean == mean
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


class TestChunkBoundaries:
    @pytest.mark.parametrize("n", SIZES)
    def test_correlation_mc(self, n):
        est = correlation_mc(0.4, 1.9, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_sign_correlation(0.4, 1.9, n, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_same_lambda(self, n):
        est = chsh_same_lambda(CFG, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_sign_same_lambda(CFG.astuple(), n, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_independent_sign(self, n):
        est = chsh_independent(CFG, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_sign_independent(CFG.astuple(), n, np.random.default_rng(n)))

    @pytest.mark.parametrize(
        "deg",
        [
            (45, 0, 22.5, 67.5),
            (0, 45, 90, 112.5),
            (-45, 45, 135, 180),
            (4455, 0, 22.5, 67.5),
            pytest.param(AngleConfig(*TestFlipPoints.WRAPPED, 0.3, 1.2), id="wrapped-radians"),
        ],
    )
    def test_sign_protocols_with_flips_on_zero(self, deg):
        # Multiples of 22.5 degrees put flips on lambda = 0 and pi/2; 4455
        # degrees flips three times, just above 0, near pi/2 and just below pi.
        # The wrapped angles, whose endpoints lie within rounding of pi but
        # flip near 0, are given in radians: through degrees their bits move.
        cfg = deg if isinstance(deg, AngleConfig) else AngleConfig(*np.radians(deg))
        n = C + 1
        est = chsh_same_lambda(cfg, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_sign_same_lambda(cfg.astuple(), n, np.random.default_rng(n)))
        est = chsh_independent(cfg, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_sign_independent(cfg.astuple(), n, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_quantum(self, n):
        est = quantum_chsh_independent(CFG, n, np.random.default_rng(n))
        _assert_matches(est, n, dense_quantum_independent(CFG.astuple(), n, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_simulate_pair_stream(self, n):
        # simulate draws the four pairs back to back from one stream.
        rng, dense_rng = np.random.default_rng(n), np.random.default_rng(n)
        for alpha, beta in lhv.angle_pairs(CFG):
            est = product_estimate(joint_distribution(alpha, beta), n, rng)
            _assert_matches(est, n, dense_pair_products(alpha, beta, n, dense_rng))

    @pytest.mark.parametrize("n", SIZES)
    def test_t_observable(self, n):
        dist = t_distribution(T_CFG)
        est = t_estimate(T_CFG, n, np.random.default_rng(n))
        mean, stderr, outcomes = dense_two_point(dist.t0, dist.weight_plus, n, np.random.default_rng(n))
        _assert_matches(est, n, (mean, stderr))
        # The float mean of the outcomes themselves differs by rounding only.
        assert est.mean == pytest.approx(float(np.mean(outcomes)), rel=1e-12, abs=1e-15)


class TestCountEstimate:
    @pytest.mark.parametrize("n", [1, 0, -1, -3])
    def test_requires_two_samples(self, n):
        # Every estimator leaves the trial count to estimate_from_counts's one check.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimate_from_counts((-1, 1), (max(n, 0), 0))
        for run in (
            lambda: correlation_mc(0.1, 0.2, n, rng),
            lambda: chsh_same_lambda(CFG, n, rng),
            lambda: chsh_independent(CFG, n, rng),
            lambda: quantum_chsh_independent(CFG, n, rng),
            lambda: product_estimate(joint_distribution(0.1, 0.2), n, rng),
            lambda: t_estimate(T_CFG, n, rng),
        ):
            with pytest.raises(ValueError, match="^need at least 2 samples$"):
                run()

    def test_exact_at_huge_counts(self):
        # n * (sum of squares) is about 6e31: exact as Python ints, far past int64.
        n = 2 * 10**15 + 1
        est = estimate_from_counts((-4, -2, 0, 2, 4), (10**15, 0, 0, 0, 10**15 + 1))
        assert est.n_samples == n
        assert est.mean == 4 / n
        # sum 4, sum of squares 16 n: unbiased variance 16 (n + 1) / n.
        assert est.stderr == pytest.approx(math.sqrt(16 * (n + 1) / n) / math.sqrt(n), rel=1e-15)

    def test_constant_sample_has_zero_stderr(self):
        est = estimate_from_counts((-1, 1), (0, 12345))
        assert (est.mean, est.stderr) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "d, values",
        [(1, (-1,)), (1, (-1, 0, 1)), (4, (-1, 1)), (2, (-2, 0, 2, 4))],
        ids=["1-rule-1-value", "1-rule-3-values", "4-rules-2-values", "2-rules-4-values"],
    )
    def test_value_count_checked_before_any_draw(self, d, values):
        # d rules give indices 0..d: one value short or over raises with the generator untouched.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="outside or short of"):
            rule_estimate(C + 1, rng, [(True, [0.5])] * d, values)
        assert rng.bit_generator.state == state

    def test_empty_rule_list_raises_before_any_draw(self):
        # With no rules and one value the value count matches; the empty list is named instead.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="rules is empty"):
            rule_estimate(5, rng, [], (1,))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("holds", [h for d in range(1, 5) for h in itertools.product((False, True), repeat=d)])
    def test_value_index_counts_the_rules_that_hold(self, holds):
        # Constant rules hold on every draw or on none: each trial takes values[h].
        values = (3, -1, 4, -5, 9)[: len(holds) + 1]
        est = rule_estimate(C + 1, np.random.default_rng(0), [(r0, []) for r0 in holds], values)
        assert (est.mean, est.stderr, est.n_samples) == (values[sum(holds)], 0.0, C + 1)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_random_rule_sets_against_a_dense_count(self, n, d):
        # No estimator runs 2 or 3 rules: random sets, with repeated cuts and
        # the edges 0.0 and 1.0, against a per-trial count on the float law.
        rng = np.random.default_rng(1000 * d + n)
        pool = [0.0, 1.0, *rng.uniform(0.0, 1.0, 3)]
        fixed = [(True, [0.0, 0.3, 0.3]), (False, [0.25, 1.0]), (True, [0.5, 0.5, 1.0])][:d]
        rule_sets = [fixed] + [
            [(bool(rng.integers(2)), sorted(rng.choice(pool, rng.integers(0, 5)).tolist())) for _ in range(d)]
            for _ in range(3)
        ]
        u = uniform_law(trials_by_rule(raw_halves(np.random.default_rng(n), d * n), d))
        for rules in rule_sets:
            values = tuple((rng.permutation(9)[: d + 1] - 4).tolist())
            held = sum(cut_parity(r0, cuts, u[:, j]).astype(int) for j, (r0, cuts) in enumerate(rules))
            dense = estimate_from_counts(values, np.bincount(held, minlength=d + 1).tolist())
            assert rule_estimate(n, np.random.default_rng(n), rules, values) == dense

    def test_rule_count_outside_the_values_raises(self):
        # Four rules that always hold give index 4, which (-1, 1) lacks.
        with pytest.raises(ValueError, match="outside"):
            rule_estimate(C + 1, np.random.default_rng(0), [(True, [])] * 4)



@pytest.mark.parametrize("n", [C - 1, C + 1, 3 * C + 5])
@pytest.mark.parametrize(
    "d, run",
    [
        (1, lambda n, rng: correlation_mc(0.4, 1.9, n, rng)),
        (1, lambda n, rng: chsh_same_lambda(CFG, n, rng)),
        (1, lambda n, rng: product_estimate(joint_distribution(0.4, 1.9), n, rng)),
        (1, lambda n, rng: t_estimate(T_CFG, n, rng)),
        (4, lambda n, rng: chsh_independent(CFG, n, rng)),
        (4, lambda n, rng: quantum_chsh_independent(CFG, n, rng)),
    ],
    ids=["correlation_mc", "chsh_same_lambda", "product_estimate", "t_estimate", "chsh_independent", "quantum"],
)
def test_estimators_leave_the_stream_after_d_n_draws(n, d, run):
    # A run of n trials of d rules leaves rng where one draw_raw32 of d n
    # halves does, whatever its chunks: simulate's pairs read one stream back to back.
    rng, copy = np.random.default_rng(n), np.random.default_rng(n)
    run(n, rng)
    draw_raw32(copy, d * n)
    assert rng.bit_generator.state == copy.bit_generator.state

def test_independent_memory_is_bounded():
    n = 4_000_000
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        est = chsh_independent(CFG, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_samples == n
    assert peak < 16 * 2**20
