import math
from itertools import product

import numpy as np
import pytest

from chshlab import lhv
from chshlab.lhv import (
    AngleConfig,
    _combined,
    _rules,
    angle_pairs,
    chsh_independent,
    chsh_same_lambda,
    correlation_mc,
    quantum_chsh_independent,
    tsirelson_angles,
)
from chshlab.montecarlo import cut_mask
from chshlab.quantum import _product_rules, joint_distribution

from oracles import cos_sign_response, parity_identity, same_lambda_is_plus, sign_model_sawtooth, signs, uniforms32

SQRT8 = 2.0 * math.sqrt(2.0)


def _response_masks(angles, lam):
    # A's response mask per angle at lam: the package's own cut rule of the cosine rule.
    return [cut_mask(*rule, lam) for rule in _rules(angles)]


def _sawtooth_sum(cfg):
    # The analytic independent-pairs mean: s1 + s2 + s3 - s4 over angle_pairs.
    s = [sign_model_sawtooth(alpha, beta) for alpha, beta in angle_pairs(cfg)]
    return s[0] + s[1] + s[2] - s[3]


def test_angle_pairs_assignment():
    cfg = AngleConfig(0.1, 0.2, 0.3, 0.4)
    assert angle_pairs(cfg) == ((0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4))


def test_tsirelson_angles():
    cfg = tsirelson_angles()
    assert cfg.astuple() == (math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8)


class TestSignModel:
    def test_responses_are_signs(self):
        lam = np.linspace(0.0, math.pi, 1001, endpoint=False)
        for mask in _response_masks((-1.0, 0.0, 0.7, math.pi), lam):
            assert set(np.unique(signs(mask))) <= {-1, 1}

    def test_responses_deterministic(self):
        lam = np.array([0.1, 0.5, 2.0])
        first, second = (_response_masks([0.3], lam)[0] for _ in range(2))
        assert np.array_equal(signs(first), signs(second))

    def test_sign_zero_convention(self):
        # cos(2(angle - lam)) == 0 must resolve to +1 for station A
        assert signs(_response_masks([math.pi / 4], np.asarray(0.0))[0]) == 1

    def test_perfect_anticorrelation_at_equal_angles(self):
        # B = -A, so A B = -1 on every drawn lambda
        assert correlation_mc(1.1, 1.1, 997, np.random.default_rng(0)).mean == -1.0


class TestCorrelationMC:
    def test_equal_angles_exact(self):
        est = correlation_mc(0.4, 0.4, 1000, np.random.default_rng(0))
        assert est.mean == -1.0
        assert est.stderr == 0.0
        assert est.n_samples == 1000

    def test_against_sawtooth(self):
        rng = np.random.default_rng(1)
        for alpha, beta in [(math.pi / 4, 0.0), (math.pi / 8, 0.0), (1.2, 0.5)]:
            est = correlation_mc(alpha, beta, 100_000, rng)
            assert abs(est.mean - sign_model_sawtooth(alpha, beta)) <= 4.0 * est.stderr + 1e-6

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            correlation_mc(0.0, 0.1, 1, np.random.default_rng(0))


class TestParityIdentity:
    def test_exhaustive_sixteen(self):
        for a1, a2, b1, b2 in product((-1, 1), repeat=4):
            assert parity_identity(a1, a2, b1, b2) in (-2, 2)

    def test_dual_form_exhaustive(self):
        for a1, a2, b1, b2 in product((-1, 1), repeat=4):
            assert (b1 + b2) * a1 + (b1 - b2) * a2 in (-2, 2)

    @pytest.mark.parametrize(
        "inputs,expected",
        [((1, 1, 1, 1), 2), ((1, -1, 1, 1), 2), ((-1, -1, 1, -1), -2)],
    )
    def test_reference_values(self, inputs, expected):
        assert parity_identity(*inputs) == expected

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            parity_identity(0, 1, 1, 1)


class TestSameLambda:
    def test_per_trial_values_are_plus_minus_two(self):
        cfg = tsirelson_angles()
        n = 20_000
        # reproduce the estimator's draws: lambda = pi * u on 32-bit uniforms, B = -A
        lam = math.pi * uniforms32(np.random.default_rng(5), n)
        a1, a2, b1, b2 = (cos_sign_response(angle, lam) for angle in cfg.astuple())
        b1, b2 = -b1, -b2
        s = (a1 + a2) * b1 + (a1 - a2) * b2
        assert set(np.unique(s)) <= {-2, 2}
        est = chsh_same_lambda(cfg, n, np.random.default_rng(5))
        assert est.mean == pytest.approx(float(np.mean(s)), abs=0)
        assert -2.0 <= est.mean <= 2.0

    def test_every_lambda_gives_minus_two_at_the_tsirelson_angles(self):
        # The paper's point: one lambda per trial, and at the Tsirelson angles
        # the per-trial value is -2 on all of [0, pi), so the rule that gives
        # +2 has no cut and the estimate is -2 exactly, with stderr 0.
        cfg = tsirelson_angles()
        assert _combined(_rules(cfg.astuple()), same_lambda_is_plus) == [(False, [])]
        est = chsh_same_lambda(cfg, 1_000_000, np.random.default_rng(24))
        assert (est.mean, est.stderr, est.n_samples) == (-2.0, 0.0, 1_000_000)

    def test_estimate_matches_quadrature_combination(self):
        cfg = tsirelson_angles()
        est = chsh_same_lambda(cfg, 200_000, np.random.default_rng(6))
        assert abs(est.mean - _sawtooth_sum(cfg)) <= 4.0 * est.stderr + 1e-6

    def test_degenerate_config_reduces_to_single_correlation(self):
        cfg = AngleConfig(0.6, 0.6, 0.1, 0.1)
        est = chsh_same_lambda(cfg, 100_000, np.random.default_rng(7))
        target = 2.0 * sign_model_sawtooth(0.6, 0.1)
        assert abs(est.mean - target) <= 4.0 * est.stderr + 1e-6


class TestIndependent:
    def test_per_trial_values_in_even_range(self):
        cfg = tsirelson_angles()
        n = 20_000
        lam = math.pi * uniforms32(np.random.default_rng(8), 4 * n).reshape(n, 4)
        pairs = angle_pairs(cfg)
        a = [cos_sign_response(pairs[j][0], lam[:, j]) for j in range(4)]
        b = [-cos_sign_response(pairs[j][1], lam[:, j]) for j in range(4)]
        s = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3]
        assert set(np.unique(s)) <= {-4, -2, 0, 2, 4}
        est = chsh_independent(cfg, n, np.random.default_rng(8))
        assert est.mean == pytest.approx(float(np.mean(s)), abs=0)
        assert -4.0 <= est.mean <= 4.0

    def test_factorizes_into_four_quadratures(self):
        cfg = AngleConfig(0.3, 1.1, 0.7, 2.0)
        est = chsh_independent(cfg, 400_000, np.random.default_rng(9))
        assert abs(est.mean - _sawtooth_sum(cfg)) <= 4.0 * est.stderr + 1e-6


class TestQuantumIndependent:
    def test_max_violation_reaches_tsirelson_value(self):
        est = quantum_chsh_independent(tsirelson_angles(), 400_000, np.random.default_rng(10))
        assert abs(abs(est.mean) - SQRT8) <= 4.0 * est.stderr

    def test_collapsed_config(self):
        cfg = AngleConfig(0.9, 0.9, 0.2, 0.2)
        est = quantum_chsh_independent(cfg, 200_000, np.random.default_rng(11))
        target = 2.0 * (-math.cos(2.0 * (0.9 - 0.2)))
        assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_exact_expectation_oracle(self):
        cfg = AngleConfig(0.3, 1.4, 0.8, 2.2)
        est = quantum_chsh_independent(cfg, 400_000, np.random.default_rng(12))
        qs = [-math.cos(2.0 * (a - b)) for a, b in angle_pairs(cfg)]
        target = qs[0] + qs[1] + qs[2] - qs[3]
        assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            quantum_chsh_independent(tsirelson_angles(), 1, np.random.default_rng(0))

    def test_rules_equal_the_per_pair_laws(self, monkeypatch):
        # The four rules come from one q_quad call; each is bit-equal to the
        # rule of its own pair's joint_distribution, the last negated.
        seen = []
        monkeypatch.setattr(lhv, "rule_estimate", lambda n, rng, rules, values: seen.append(rules))
        rng = np.random.default_rng(26)
        configs = [rng.uniform(-r, r, (150, 4)) for r in (math.pi, 4.0, 1e3, 1e6)]
        configs.append(math.pi / 8 * rng.integers(-24, 25, (300, 4)))
        for angles in np.concatenate(configs).tolist():
            cfg = AngleConfig(*angles)
            quantum_chsh_independent(cfg, 2, rng)
            *rules, (r0, cuts) = (_product_rules(joint_distribution(*pair).as_array())[0] for pair in angle_pairs(cfg))
            assert seen.pop() == [*rules, (not r0, cuts)]
