import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chshlab.constrained import (
    CELL_ORDER,
    CorrelationQuad,
    DegenerateConditioningError,
    build_constrained,
    build_constrained_from_quad,
    constrained_expectation_bruteforce,
    constrained_expectation_closed,
    correlation_quad,
    quantum_eight_variable_sum,
)
from chshlab.lhv import AngleConfig, angle_pairs, tsirelson_angles
from chshlab.quantum import joint_distribution

from oracles import conditioned_expectation_eight_variable, random_angle_tuple

SQRT2 = math.sqrt(2.0)
TARGET = -4.0 * SQRT2 / 3.0  # the conditioned expectation at the max-violation angles

quad_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def random_config(rng):
    return AngleConfig(*random_angle_tuple(rng))


class TestCorrelationQuad:
    def test_all_angles_equal(self):
        quad = correlation_quad(AngleConfig(0.5, 0.5, 0.5, 0.5))
        assert quad.astuple() == (-1.0, -1.0, -1.0, -1.0)

    def test_max_violation_angles(self):
        quad = correlation_quad(tsirelson_angles())
        expected = (-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
        assert np.max(np.abs(np.array(quad.astuple()) - np.array(expected))) <= 1e-15

    def test_quarter_pi_gap_vanishes(self):
        quad = correlation_quad(AngleConfig(math.pi / 4, 0.0, 0.0, 0.0))
        assert abs(quad.q1) <= 1e-15

    def test_recomputable_from_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = random_config(rng)
            quad = correlation_quad(cfg)
            for qn, (alpha, beta) in zip(quad.astuple(), angle_pairs(cfg)):
                assert qn == pytest.approx(-math.cos(2.0 * (alpha - beta)), abs=0)


def pair_law(cfg, n):
    """Outcome law of pair n (1-based) in the independent protocol."""
    return joint_distribution(*angle_pairs(cfg)[n - 1])


class TestPairProbabilities:
    def test_anticorrelated_pair(self):
        cfg = AngleConfig(0.5, 0.5, 0.5, 0.5)  # every q is -1
        d = pair_law(cfg, 1)
        assert d.probability(1, 1) == pytest.approx(0.0, abs=1e-15)
        assert d.probability(1, -1) == pytest.approx(0.5, abs=1e-15)

    def test_max_violation_first_pair(self):
        d = pair_law(tsirelson_angles(), 1)
        assert d.probability(1, 1) == pytest.approx((1.0 - SQRT2 / 2.0) / 4.0, abs=1e-15)

    def test_matches_joint_distribution(self):
        # P(k, l) = (1 + k l q_n)/4 with q_n the n-th entry of the correlation quad
        rng = np.random.default_rng(1)
        for _ in range(10):
            cfg = random_config(rng)
            for n, qn in enumerate(correlation_quad(cfg).astuple(), start=1):
                expected = {(k, l): (1.0 + k * l * qn) / 4.0 for k in (1, -1) for l in (1, -1)}
                assert pair_law(cfg, n).probs == expected

    def test_normalized(self):
        for n in (1, 2, 3, 4):
            assert pair_law(tsirelson_angles(), n).as_array().sum() == pytest.approx(1.0, abs=1e-15)


class TestBuildConstrained:
    def test_uniform_at_zero_quad(self):
        dist = build_constrained_from_quad(CorrelationQuad(0.0, 0.0, 0.0, 0.0))
        assert all(p == pytest.approx(1.0 / 16.0, abs=0) for p in dist.probs.values())

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dist = build_constrained(random_config(rng))
            assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-14)
            assert all(p >= 0.0 for p in dist.probs.values())

    def test_normalizer_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cfg = random_config(rng)
            quad = correlation_quad(cfg)
            dist = build_constrained(cfg)
            assert abs(dist.normalizer - (1.0 + math.prod(quad.astuple())) / 16.0) <= 1e-14

    def test_angle_quads_never_degenerate(self):
        # the four angle differences obey one linear relation, which keeps
        # the conditioning mass at or above 3/64
        rng = np.random.default_rng(4)
        masses = [build_constrained(random_config(rng)).normalizer for _ in range(200)]
        assert min(masses) >= 3.0 / 64.0 - 1e-12

    def test_degenerate_quad_raises(self):
        with pytest.raises(DegenerateConditioningError, match="zero probability"):
            build_constrained_from_quad(CorrelationQuad(-1.0, 1.0, 1.0, 1.0))

    def test_rejects_out_of_range_quad(self):
        with pytest.raises(ValueError):
            build_constrained_from_quad(CorrelationQuad(1.5, 0.0, 0.0, 0.0))

    def test_cell_order_complete(self):
        assert len(CELL_ORDER) == 16
        assert set(CELL_ORDER) == set(product((1, -1), repeat=4))

    def test_marginal_means_match_direct_summation(self):
        signs = np.array(CELL_ORDER, dtype=float).T  # rows: k1, l1, k4, l4
        rng = np.random.default_rng(5)
        for _ in range(20):
            dist = build_constrained(random_config(rng))
            got = signs @ np.array([dist.probs[cell] for cell in CELL_ORDER])
            expected = [0.0, 0.0, 0.0, 0.0]
            for (k1, l1, k4, l4), p in dist.probs.items():
                expected[0] += k1 * p
                expected[1] += l1 * p
                expected[2] += k4 * p
                expected[3] += l4 * p
            assert np.max(np.abs(got - np.array(expected))) <= 1e-15
            # this constraint pattern leaves all marginals unbiased
            assert np.max(np.abs(got)) <= 1e-14


class TestExpectations:
    def test_uniform_gives_zero(self):
        dist = build_constrained_from_quad(CorrelationQuad(0.0, 0.0, 0.0, 0.0))
        assert constrained_expectation_bruteforce(dist) == pytest.approx(0.0, abs=1e-15)

    def test_worked_value_closed(self):
        quad = CorrelationQuad(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
        assert constrained_expectation_closed(quad) == pytest.approx(TARGET, abs=1e-12)

    def test_worked_value_bruteforce_from_angles(self):
        dist = build_constrained(tsirelson_angles())
        assert constrained_expectation_bruteforce(dist) == pytest.approx(TARGET, abs=1e-12)

    def test_zero_quad_closed(self):
        assert constrained_expectation_closed(CorrelationQuad(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_all_anticorrelated_quad(self):
        quad = CorrelationQuad(-1.0, -1.0, -1.0, -1.0)
        assert constrained_expectation_closed(quad) == pytest.approx(-2.0, abs=1e-15)
        dist = build_constrained_from_quad(quad)
        assert constrained_expectation_bruteforce(dist) == pytest.approx(-2.0, abs=1e-15)

    def test_closed_matches_bruteforce_on_random_configs(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            cfg = random_config(rng)
            quad = correlation_quad(cfg)
            closed = constrained_expectation_closed(quad)
            brute = constrained_expectation_bruteforce(build_constrained(cfg))
            assert abs(closed - brute) <= 1e-12

    def test_matches_eight_variable_conditioning_oracle(self):
        rng = np.random.default_rng(7)
        quads = [correlation_quad(random_config(rng)).astuple() for _ in range(20)]
        quads.append((-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2))
        for q in quads:
            expected, mass = conditioned_expectation_eight_variable(q)
            quad = CorrelationQuad(*q)
            assert constrained_expectation_closed(quad) == pytest.approx(expected, abs=1e-12)
            dist = build_constrained_from_quad(quad)
            assert constrained_expectation_bruteforce(dist) == pytest.approx(expected, abs=1e-12)
            assert dist.normalizer == pytest.approx(mass, abs=1e-14)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateConditioningError):
            constrained_expectation_closed(CorrelationQuad(-1.0, 1.0, 1.0, 1.0))

    @given(quad_floats, quad_floats, quad_floats, quad_floats)
    def test_expectation_never_exceeds_two(self, q1, q2, q3, q4):
        # the pointwise combination is +-2, so any valid conditioned law obeys
        # |E| <= 2 -- for every quad in [-1, 1]^4, not only realizable ones
        assume(1.0 + q1 * q2 * q3 * q4 > 1e-9)
        dist = build_constrained_from_quad(CorrelationQuad(q1, q2, q3, q4))
        assert abs(constrained_expectation_bruteforce(dist)) <= 2.0 + 1e-9

    @given(quad_floats, quad_floats, quad_floats, quad_floats)
    def test_closed_matches_bruteforce_on_quads(self, q1, q2, q3, q4):
        assume(1.0 + q1 * q2 * q3 * q4 > 1e-3)
        quad = CorrelationQuad(q1, q2, q3, q4)
        closed = constrained_expectation_closed(quad)
        brute = constrained_expectation_bruteforce(build_constrained_from_quad(quad))
        assert abs(closed - brute) <= 1e-12


class TestEightVariableSum:
    def test_max_violation_angles(self):
        quad = correlation_quad(tsirelson_angles())
        value = quantum_eight_variable_sum(quad)
        assert abs(abs(value) - 2.0 * SQRT2) <= 1e-12
        assert value == pytest.approx(-2.0 * SQRT2, abs=1e-12)

    def test_zero_quad(self):
        assert quantum_eight_variable_sum(CorrelationQuad(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_all_equal_angles(self):
        quad = correlation_quad(AngleConfig(0.3, 0.3, 0.3, 0.3))
        assert quantum_eight_variable_sum(quad) == pytest.approx(-2.0, abs=1e-15)
