import math

import numpy as np

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
from chshlab.quantum import _product_rules, joint_distribution

from oracles import same_lambda_is_plus, sign_model_sawtooth

SQRT8 = 2.0 * math.sqrt(2.0)


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


class TestSameLambda:
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
