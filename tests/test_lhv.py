import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshlab.lhv import (
    AngleConfig,
    HiddenVariableModel,
    QuantumMimicModel,
    angle_pairs,
    chsh_independent,
    chsh_same_lambda,
    correlation_mc,
    correlation_quadrature,
    get_model,
    parity_identity,
    quantum_chsh_independent,
    reference_sign_model,
    tsirelson_angles,
)

from oracles import sign_model_sawtooth

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
SQRT8 = 2.0 * math.sqrt(2.0)


def test_angle_pairs_assignment():
    cfg = AngleConfig(0.1, 0.2, 0.3, 0.4)
    assert angle_pairs(cfg) == ((0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4))


def test_tsirelson_angles():
    cfg = tsirelson_angles()
    assert cfg.astuple() == (math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8)


class TestSignModel:
    def test_responses_are_signs(self):
        model = reference_sign_model()
        lam = np.linspace(-5.0, 5.0, 1001)
        for angle in (-1.0, 0.0, 0.7, math.pi):
            assert set(np.unique(model.respond_a(angle, lam))) <= {-1, 1}
            assert set(np.unique(model.respond_b(angle, lam))) <= {-1, 1}

    def test_responses_deterministic(self):
        model = reference_sign_model()
        lam = np.array([0.1, 0.5, 2.0])
        assert np.array_equal(model.respond_a(0.3, lam), model.respond_a(0.3, lam))

    def test_sign_zero_convention(self):
        model = reference_sign_model()
        # cos(2(angle - lam)) == 0 must resolve to +1 for station A
        assert model.respond_a(math.pi / 4, 0.0) == 1

    def test_perfect_anticorrelation_at_equal_angles(self):
        model = reference_sign_model()
        lam = np.linspace(0.0, math.pi, 997, endpoint=False)
        assert np.all(model.respond_a(1.1, lam) * model.respond_b(1.1, lam) == -1)

    @given(angles, angles)
    def test_quadrature_matches_sawtooth(self, alpha, beta):
        model = reference_sign_model()
        got = correlation_quadrature(model, alpha, beta, grid_points=20_000)
        assert got == pytest.approx(sign_model_sawtooth(alpha, beta), abs=2e-3)

    def test_quadrature_reference_points(self):
        model = reference_sign_model()
        assert correlation_quadrature(model, 0.3, 0.3, 100_000) == pytest.approx(-1.0, abs=1e-6)
        assert correlation_quadrature(model, math.pi / 4, 0.0, 100_000) == pytest.approx(0.0, abs=1e-3)
        assert correlation_quadrature(model, math.pi / 8, 0.0, 100_000) == pytest.approx(-0.5, abs=1e-3)

    def test_quadrature_rejects_small_grid(self):
        with pytest.raises(ValueError):
            correlation_quadrature(reference_sign_model(), 0.0, 0.0, grid_points=10)


class TestCorrelationMC:
    def test_equal_angles_exact(self):
        est = correlation_mc(reference_sign_model(), 0.4, 0.4, 1000, np.random.default_rng(0))
        assert est.mean == -1.0
        assert est.stderr == 0.0
        assert est.n_samples == 1000

    def test_against_quadrature(self):
        model = reference_sign_model()
        rng = np.random.default_rng(1)
        for alpha, beta in [(math.pi / 4, 0.0), (math.pi / 8, 0.0), (1.2, 0.5)]:
            est = correlation_mc(model, alpha, beta, 100_000, rng)
            target = correlation_quadrature(model, alpha, beta, 100_000)
            assert abs(est.mean - target) <= 4.0 * est.stderr + 1e-3

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            correlation_mc(reference_sign_model(), 0.0, 0.1, 1, np.random.default_rng(0))


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
        model = reference_sign_model()
        cfg = tsirelson_angles()
        n = 20_000
        # reproduce the estimator's draws through the public model interface
        lam = model.sample(np.random.default_rng(5), n)
        a1 = model.respond_a(cfg.alpha1, lam)
        a2 = model.respond_a(cfg.alpha2, lam)
        b1 = model.respond_b(cfg.beta1, lam)
        b2 = model.respond_b(cfg.beta2, lam)
        s = (a1 + a2) * b1 + (a1 - a2) * b2
        assert set(np.unique(s)) <= {-2, 2}
        est = chsh_same_lambda(model, cfg, n, np.random.default_rng(5))
        assert est.mean == pytest.approx(float(np.mean(s)), abs=0)
        assert -2.0 <= est.mean <= 2.0

    def test_estimate_matches_quadrature_combination(self):
        model = reference_sign_model()
        cfg = tsirelson_angles()
        est = chsh_same_lambda(model, cfg, 200_000, np.random.default_rng(6))
        target = (
            correlation_quadrature(model, cfg.alpha1, cfg.beta1, 100_000)
            + correlation_quadrature(model, cfg.alpha1, cfg.beta2, 100_000)
            + correlation_quadrature(model, cfg.alpha2, cfg.beta1, 100_000)
            - correlation_quadrature(model, cfg.alpha2, cfg.beta2, 100_000)
        )
        assert abs(est.mean - target) <= 4.0 * est.stderr + 1e-3

    def test_degenerate_config_reduces_to_single_correlation(self):
        model = reference_sign_model()
        cfg = AngleConfig(0.6, 0.6, 0.1, 0.1)
        est = chsh_same_lambda(model, cfg, 100_000, np.random.default_rng(7))
        target = 2.0 * correlation_quadrature(model, 0.6, 0.1, 100_000)
        assert abs(est.mean - target) <= 4.0 * est.stderr + 1e-3

    def test_rejects_mimic(self):
        with pytest.raises(ValueError, match="local-hidden-variable"):
            chsh_same_lambda(QuantumMimicModel(), tsirelson_angles(), 100, np.random.default_rng(0))


class TestIndependent:
    def test_per_trial_values_in_even_range(self):
        model = reference_sign_model()
        cfg = tsirelson_angles()
        n = 20_000
        lam = model.sample(np.random.default_rng(8), (n, 4))
        pairs = angle_pairs(cfg)
        a = [model.respond_a(pairs[j][0], lam[:, j]) for j in range(4)]
        b = [model.respond_b(pairs[j][1], lam[:, j]) for j in range(4)]
        s = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3]
        assert set(np.unique(s)) <= {-4, -2, 0, 2, 4}
        est = chsh_independent(model, cfg, n, np.random.default_rng(8))
        assert est.mean == pytest.approx(float(np.mean(s)), abs=0)
        assert -4.0 <= est.mean <= 4.0

    def test_factorizes_into_four_quadratures(self):
        model = reference_sign_model()
        cfg = AngleConfig(0.3, 1.1, 0.7, 2.0)
        est = chsh_independent(model, cfg, 400_000, np.random.default_rng(9))
        pairs = angle_pairs(cfg)
        target = (
            correlation_quadrature(model, *pairs[0], 100_000)
            + correlation_quadrature(model, *pairs[1], 100_000)
            + correlation_quadrature(model, *pairs[2], 100_000)
            - correlation_quadrature(model, *pairs[3], 100_000)
        )
        assert abs(est.mean - target) <= 4.0 * est.stderr + 1e-3


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

    def test_mimic_model_reproduces_quantum_estimator(self):
        cfg = tsirelson_angles()
        via_model = chsh_independent(QuantumMimicModel(), cfg, 50_000, np.random.default_rng(13))
        direct = quantum_chsh_independent(cfg, 50_000, np.random.default_rng(13))
        assert via_model == direct

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            quantum_chsh_independent(tsirelson_angles(), 1, np.random.default_rng(0))


class TestModelRegistry:
    def test_known_models(self):
        assert isinstance(get_model("sign"), HiddenVariableModel)
        assert isinstance(get_model("quantum-mimic"), QuantumMimicModel)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            get_model("telepathy")

    def test_mimic_rejected_by_quadrature_and_mc(self):
        mimic = QuantumMimicModel()
        with pytest.raises(ValueError):
            correlation_quadrature(mimic, 0.0, 0.1)
        with pytest.raises(ValueError):
            correlation_mc(mimic, 0.0, 0.1, 100, np.random.default_rng(0))

    def test_broken_model_responses_detected(self):
        from chshlab.lhv import HiddenVariableModel

        broken = HiddenVariableModel(
            name="broken",
            sample=lambda rng, size=None: rng.uniform(0.0, math.pi, size),
            respond_a=lambda angle, lam: np.zeros_like(np.asarray(lam)),
            respond_b=lambda angle, lam: np.ones_like(np.asarray(lam)),
            support=(0.0, math.pi),
        )
        with pytest.raises(ValueError, match="outside"):
            correlation_mc(broken, 0.0, 0.1, 100, np.random.default_rng(0))
