import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshlab.quantum import (
    OUTCOME_ORDER,
    PairOutcomeDistribution,
    analyzer_operator,
    analyzer_state,
    commutator,
    joint_distribution,
    product_estimate,
    sample_pairs,
    singlet_correlation,
    singlet_state,
)
from oracles import dense_singlet_pairs, inverse_cdf_pairs, uniforms32

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_singlet_state_entries():
    psi = singlet_state()
    r = 1.0 / math.sqrt(2.0)
    assert psi.tolist() == [0.0, r, -r, 0.0]
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15


class TestAnalyzerState:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, (1.0, 0.0)),
            (math.pi / 2, (math.cos(math.pi / 2), 1.0)),
            (math.pi / 4, (math.cos(math.pi / 4), math.sin(math.pi / 4))),
        ],
    )
    def test_values(self, theta, expected):
        s = analyzer_state(theta)
        assert s[0].real == pytest.approx(expected[0], abs=1e-15)
        assert s[1].real == pytest.approx(expected[1], abs=1e-15)

    @given(angles)
    def test_unit_norm(self, theta):
        assert abs(np.linalg.norm(analyzer_state(theta)) - 1.0) <= 1e-15


class TestAnalyzerOperator:
    def test_theta_zero(self):
        assert np.allclose(analyzer_operator(0.0), np.diag([1.0, -1.0]), atol=0)

    def test_theta_quarter_pi(self):
        op = analyzer_operator(math.pi / 4)
        assert np.max(np.abs(op - np.array([[0.0, 1.0], [1.0, 0.0]]))) <= 1e-15

    @given(angles)
    def test_doubled_angle_form(self, theta):
        op = analyzer_operator(theta)
        c, s = math.cos(2 * theta), math.sin(2 * theta)
        expected = np.array([[c, s], [s, -c]])
        assert np.max(np.abs(op - expected)) <= 1e-14

    @given(angles)
    def test_involution_and_traceless(self, theta):
        op = analyzer_operator(theta)
        assert np.max(np.abs(op @ op - np.eye(2))) <= 1e-13
        assert abs(np.trace(op)) <= 1e-14

    def test_eigenvalues_plus_minus_one(self):
        from chshlab.linalg import hermitian_eigen

        rng = np.random.default_rng(1)
        for theta in rng.uniform(-math.pi, math.pi, 25):
            dec = hermitian_eigen(analyzer_operator(theta))
            assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-13)

    def test_stack_equals_scalar_calls_bitwise(self):
        # 10^4 angles, half in [-4, 4] and half up to the CLI limit |theta| = 1e6.
        # Each operator also equals 2|t><t| - I written from math.cos/math.sin,
        # so the stacked route keeps the scalar route's output bytes.
        rng = np.random.default_rng(9)
        thetas = np.concatenate([rng.uniform(-4.0, 4.0, 5000), rng.uniform(-1e6, 1e6, 5000)])
        stack = analyzer_operator(thetas)
        assert stack.shape == (10_000, 2, 2)
        for theta, op in zip(thetas.tolist(), stack):
            assert np.array_equal(analyzer_operator(theta), op)
            c, s = math.cos(theta), math.sin(theta)
            assert np.array_equal(op, [[2.0 * c * c - 1.0, 2.0 * c * s], [2.0 * s * c, 2.0 * s * s - 1.0]])
        assert analyzer_state(thetas).shape == (10_000, 2)
        assert analyzer_operator(thetas.reshape(100, 25, 4)).shape == (100, 25, 4, 2, 2)


class TestCommutator:
    def test_equal_angles(self):
        assert np.max(np.abs(commutator(0.4, 0.4))) == 0.0

    def test_half_pi_apart(self):
        assert np.max(np.abs(commutator(0.9 + math.pi / 2, 0.9))) <= 1e-15

    def test_at_pi_eighth(self):
        expected = -2.0 * math.sin(math.pi / 4) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(commutator(math.pi / 8, 0.0) - expected)) <= 1e-13

    @given(angles, angles)
    def test_proportional_to_doubled_sine(self, theta, theta_prime):
        c = commutator(theta, theta_prime)
        expected = -2.0 * math.sin(2.0 * (theta - theta_prime)) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(c - expected)) <= 1e-13

    @given(angles, angles)
    def test_frobenius_norm(self, theta, theta_prime):
        c = commutator(theta, theta_prime)
        expected = 2.0 * math.sqrt(2.0) * abs(math.sin(2.0 * (theta - theta_prime)))
        assert abs(np.linalg.norm(c) - expected) <= 1e-13


class TestSingletCorrelation:
    def test_equal_angles(self):
        assert singlet_correlation(0.7, 0.7) == pytest.approx(-1.0, abs=1e-14)

    def test_quarter_pi_apart(self):
        assert abs(singlet_correlation(1.0 + math.pi / 4, 1.0)) <= 1e-13

    def test_eighth_pi_pair(self):
        value = singlet_correlation(math.pi / 4, math.pi / 8)
        assert value == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-13)

    @given(angles, angles)
    def test_matches_cosine_form(self, alpha, beta):
        assert abs(singlet_correlation(alpha, beta) + math.cos(2.0 * (alpha - beta))) <= 1e-13


class TestJointDistribution:
    def test_equal_angles(self):
        d = joint_distribution(1.3, 1.3)
        assert d.probability(1, 1) == pytest.approx(0.0, abs=1e-15)
        assert d.probability(1, -1) == pytest.approx(0.5, abs=1e-15)
        assert d.probability(-1, 1) == pytest.approx(0.5, abs=1e-15)
        assert d.probability(-1, -1) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_pi_uniform(self):
        d = joint_distribution(math.pi / 4, 0.0)
        assert np.allclose(d.as_array(), 0.25, atol=1e-15)

    def test_eighth_pi(self):
        d = joint_distribution(math.pi / 8, 0.0)
        expected = (1.0 - math.sqrt(2.0) / 2.0) / 4.0
        assert d.probability(1, 1) == pytest.approx(expected, abs=1e-15)

    @given(angles, angles)
    def test_normalized_with_uniform_marginals(self, alpha, beta):
        d = joint_distribution(alpha, beta)
        p = d.as_array()
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) <= 1e-14
        for axis in (0, 1):  # X, then Y
            for sign in (1, -1):
                marginal = sum(prob for outcome, prob in d.probs.items() if outcome[axis] == sign)
                assert abs(marginal - 0.5) <= 1e-14

    @given(angles, angles)
    def test_exact_product_mean_matches_correlation(self, alpha, beta):
        d = joint_distribution(alpha, beta)
        assert abs(d.product_mean() - singlet_correlation(alpha, beta)) <= 1e-14


class TestSampling:
    def test_equal_angles_always_anticorrelated(self):
        d = joint_distribution(0.2, 0.2)
        rng = np.random.default_rng(0)
        x, y = sample_pairs(d, 500, rng)
        assert np.all(x * y == -1)

    def test_outcomes_in_domain(self):
        d = joint_distribution(0.9, 0.1)
        rng = np.random.default_rng(1)
        x, y = sample_pairs(d, 2000, rng)
        assert set(np.unique(x)) <= {-1, 1}
        assert set(np.unique(y)) <= {-1, 1}

    def test_mean_converges_at_eighth_pi(self):
        n = 1_000_000
        d = joint_distribution(math.pi / 8, 0.0)
        x, y = sample_pairs(d, n, np.random.default_rng(7))
        mean = float(np.mean(x * y))
        assert abs(mean + math.sqrt(2.0) / 2.0) <= 4.0 / math.sqrt(n)

    def test_marginal_frequency(self):
        n = 1_000_000
        d = joint_distribution(math.pi / 8, 0.0)
        x, _ = sample_pairs(d, n, np.random.default_rng(8))
        freq = float(np.mean(x == 1))
        assert abs(freq - 0.5) <= 4.0 * 0.5 / math.sqrt(n)

    @pytest.mark.parametrize("n", [1, 4099, (1 << 15) + 5])
    def test_per_draw_equal_to_the_inverse_cdf(self, n):
        # X = (True, [cum1]) and Y = (True, [cum0, cum1, cum2]) on one draw give the
        # inverse CDF's outcome on every draw, also where cuts repeat or sit at 0, 1/2 and 1.
        rng = np.random.default_rng(n)
        configs = rng.uniform(-10.0, 10.0, (20, 2)).tolist()
        configs += [(0.3, 0.3), (-7.1, -7.1), (math.pi / 2, 0.0), (0.0, math.pi / 2), (2.0 + math.pi / 2, 2.0)]
        for seed, (alpha, beta) in enumerate(configs):
            x, y = sample_pairs(joint_distribution(alpha, beta), n, np.random.default_rng(seed))
            ref_x, ref_y = dense_singlet_pairs(alpha, beta, n, np.random.default_rng(seed))
            assert (x.dtype, y.dtype) == (ref_x.dtype, ref_y.dtype)
            assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)

    @pytest.mark.parametrize("picks", [(3, 3, 7), (3, 7, 7), (0, 0, 0), (2, 5, 9)])
    def test_cuts_on_draws_per_draw(self, picks):
        # A hand-built law whose cumulative entries are draws of the run itself
        # (dyadic, so every sum is exact): each cut meets a draw equal to it,
        # and a repeated pick makes a zero middle entry.
        n = 4099
        u = uniforms32(np.random.default_rng(5), n)
        c0, c1, c2 = np.sort(u[list(picks)]).tolist()
        law = PairOutcomeDistribution(probs=dict(zip(OUTCOME_ORDER, (c0, c1 - c0, c2 - c1, 1.0 - c2))))
        x, y = sample_pairs(law, n, np.random.default_rng(5))
        ref_x, ref_y = inverse_cdf_pairs(np.cumsum(law.as_array()), u)
        assert np.cumsum(law.as_array()).tolist() == [c0, c1, c2, 1.0]
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)

    def test_outcome_order_fixed(self):
        assert OUTCOME_ORDER == ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_pairs(joint_distribution(0.0, 0.0), 0, np.random.default_rng(0))

    def test_non_finite_law_rejected_by_both_samplers(self):
        # built by hand: joint_distribution(inf, ...) would warn in cos first
        law = PairOutcomeDistribution(probs={o: math.nan for o in OUTCOME_ORDER})
        for sampler in (sample_pairs, product_estimate):
            with pytest.raises(ValueError, match="must be finite"):
                sampler(law, 5, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "probs", [(0.5, 0.5, 0.0, math.nan), (math.inf, 0.0, -math.inf, 1.0), (1e308, 1e308, -1e308, -1e308)]
    )
    def test_non_finite_running_sum_rejected_by_both_samplers(self, probs):
        # Only the total is checked: a NaN, an inf cancelled later, or a running sum that overflows all reach it.
        law = PairOutcomeDistribution(probs=dict(zip(OUTCOME_ORDER, probs)))
        for sampler in (sample_pairs, product_estimate):
            with pytest.raises(ValueError, match="must be finite"):
                sampler(law, 5, np.random.default_rng(0))

    def test_negative_law_rejected_by_both_samplers(self):
        # Finite and summing to 1, yet no law: unchecked, both samplers read mean 1.0.
        law = PairOutcomeDistribution(probs={(1, 1): 0.6, (1, -1): -0.2, (-1, 1): -0.2, (-1, -1): 0.8})
        for sampler in (sample_pairs, product_estimate):
            with pytest.raises(ValueError, match="must be nonnegative"):
                sampler(law, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("total", [0.4, 1.0 + 2e-12, 1.0 - 2e-12, 2.0])
    def test_law_not_summing_to_one_rejected_by_both_samplers(self, total):
        # Unchecked, the inverse CDF gives the shortfall to (-1, -1): at total 0.4,
        # product_estimate reads 0.603 and sample_pairs puts 70% of its samples there.
        law = PairOutcomeDistribution(probs={o: total / 4 for o in OUTCOME_ORDER})
        for sampler in (sample_pairs, product_estimate):
            with pytest.raises(ValueError, match="must sum to 1"):
                sampler(law, 5, np.random.default_rng(0))


class TestPairCorrelationKernel:
    @given(angles, angles)
    def test_one_formula_for_the_pair_correlation(self, alpha, beta):
        from chshlab import kernels

        q = float(kernels.pair_correlation(alpha, beta))
        assert abs(q + math.cos(2.0 * (alpha - beta))) <= 1e-15
        d = joint_distribution(alpha, beta)
        assert d.probability(1, 1) == (1.0 + q) / 4.0
        assert d.probability(1, -1) == (1.0 - q) / 4.0
        for k, l in OUTCOME_ORDER:
            assert d.probability(k, l) == kernels.pair_probability(q, k, l)
