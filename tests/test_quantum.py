import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshlab.quantum import (
    OUTCOME_ORDER,
    analyzer_operator,
    analyzer_state,
    commutator,
    joint_distribution,
    sample_pairs,
    singlet_correlation,
    singlet_state,
)

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

    def test_outcome_order_fixed(self):
        assert OUTCOME_ORDER == ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_pairs(joint_distribution(0.0, 0.0), 0, np.random.default_rng(0))


class TestPairCorrelationKernel:
    @given(angles, angles)
    def test_one_formula_for_the_pair_correlation(self, alpha, beta):
        from chshlab import kernels

        q = float(kernels.pair_correlation(alpha, beta))
        assert abs(q + math.cos(2.0 * (alpha - beta))) <= 1e-15
        d = joint_distribution(alpha, beta)
        assert d.probability(1, 1) == (1.0 + q) / 4.0
        assert d.probability(1, -1) == (1.0 - q) / 4.0
