"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them). Tolerances are fixed here, not calibrated elsewhere."""

import math
from itertools import product

import numpy as np

from chshlab.chsh_operator import (
    build_t,
    t0_closed_form,
    t_distribution,
    t_mean,
    t_spectrum,
)
from chshlab.constrained import (
    CorrelationQuad,
    build_constrained,
    constrained_expectation_bruteforce,
    constrained_expectation_closed,
    correlation_quad,
    quantum_eight_variable_sum,
)
from chshlab.lhv import (
    AngleConfig,
    chsh_independent,
    chsh_same_lambda,
    correlation_mc,
    tsirelson_angles,
)
from chshlab.linalg import is_hermitian
from chshlab.quantum import commutator, joint_distribution, sample_pairs, singlet_state
from chshlab.scan import grid_scan, verify_bound
from chshlab import cli

from oracles import chsh_square, cos_sign_response, sign_model_sawtooth, uniforms32

SQRT2 = math.sqrt(2.0)
SQRT8 = 2.0 * SQRT2
WORKED_VALUE = -4.0 * SQRT2 / 3.0


def _report(criterion: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def _random_configs(seed: int, count: int) -> list[AngleConfig]:
    rng = np.random.default_rng(seed)
    return [AngleConfig(*(float(v) for v in rng.uniform(0.0, math.pi, 4))) for _ in range(count)]


def test_criterion_1_worked_example_closed_form():
    quad = CorrelationQuad(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
    value = constrained_expectation_closed(quad)
    _report(1, f"closed-form conditioned expectation = -4*sqrt(2)/3 (got {value!r})",
            abs(value - WORKED_VALUE) <= 1e-12)


def test_criterion_2_worked_example_bruteforce():
    closed = constrained_expectation_closed(
        CorrelationQuad(-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2)
    )
    brute = constrained_expectation_bruteforce(build_constrained(tsirelson_angles()))
    _report(2, f"16-cell brute force agrees with closed form (got {brute!r})",
            abs(brute - closed) <= 1e-12)


def test_criterion_3_eight_variable_magnitude():
    value = quantum_eight_variable_sum(correlation_quad(tsirelson_angles()))
    _report(3, f"|eight-variable sum| = 2*sqrt(2) at the worked angles (got {value!r})",
            abs(abs(value) - SQRT8) <= 1e-12)


def test_criterion_4_bound_verification():
    e4 = verify_bound("constrained_e4", 2.0, resolution=24, n_random_restarts=20, seed=0)
    eight = verify_bound("eight_variable_sum", SQRT8, resolution=24, n_random_restarts=20, seed=0)
    best = max(abs(eight.max_value), abs(eight.min_value))
    ok = (
        e4.n_violations == 0
        and eight.n_violations == 0
        and abs(best - SQRT8) <= 1e-9
    )
    _report(4, f"no violations of [-2,2] / +-2*sqrt(2); best eight-variable value {best!r}", ok)


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for config in _random_configs(seed=105, count=1000):
        quad = correlation_quad(config)
        closed = constrained_expectation_closed(quad)
        brute = constrained_expectation_bruteforce(build_constrained(config))
        worst = max(worst, abs(closed - brute))
    _report(5, f"closed form vs brute force on 1000 random configs (worst gap {worst:.3e})",
            worst <= 1e-12)


def test_criterion_6_parity_identity_exhaustive():
    primal = all(
        (a1 + a2) * b1 + (a1 - a2) * b2 in (-2, 2)
        for a1, a2, b1, b2 in product((-1, 1), repeat=4)
    )
    dual = all(
        (b1 + b2) * a1 + (b1 - b2) * a2 in (-2, 2)
        for a1, a2, b1, b2 in product((-1, 1), repeat=4)
    )
    _report(6, "all 16 sign assignments give +-2 in both the primal and dual form",
            primal and dual)


def test_criterion_7_lhv_deterministic_bounds():
    n = 1_000_000
    ok = True
    for i, config in enumerate(_random_configs(seed=107, count=20)):
        lam = math.pi * uniforms32(np.random.default_rng(1000 + i), n)
        a1, a2, b1, b2 = (cos_sign_response(angle, lam) for angle in config.astuple())
        b1, b2 = -b1, -b2
        per_trial = (a1 + a2) * b1 + (a1 - a2) * b2
        ok &= bool(np.all(np.abs(per_trial) == 2))
        est = chsh_same_lambda(config, n, np.random.default_rng(1000 + i))
        ok &= est.mean == float(np.mean(per_trial.astype(float)))
        ok &= -2.0 <= est.mean <= 2.0
        est_ind = chsh_independent(config, n, np.random.default_rng(2000 + i))
        ok &= -4.0 <= est_ind.mean <= 4.0
    _report(7, "sign model, 1e6 trials x 20 configs: per-trial +-2, means in [-2,2] / [-4,4]", ok)


def test_criterion_8_monte_carlo_vs_analytic():
    rng_angles = np.random.default_rng(108)
    ok = True
    for i in range(50):
        alpha, beta = (float(v) for v in rng_angles.uniform(0.0, math.pi, 2))
        est = correlation_mc(alpha, beta, 1_000_000, np.random.default_rng(3000 + i))
        ok &= abs(est.mean - sign_model_sawtooth(alpha, beta)) <= 4.0 * est.stderr + 1e-6
    for i in range(20):
        alpha, beta = (float(v) for v in rng_angles.uniform(0.0, math.pi, 2))
        dist = joint_distribution(alpha, beta)
        x, y = sample_pairs(dist, 1_000_000, np.random.default_rng(4000 + i))
        products = (x * y).astype(float)
        stderr = float(products.std(ddof=1)) / 1000.0
        ok &= abs(float(products.mean()) + math.cos(2.0 * (alpha - beta))) <= 4.0 * stderr
    _report(8, "sign-model MC vs sawtooth (50 pairs) and quantum sampling vs cosine law (20 pairs)", ok)


def test_criterion_9_spectral_suite():
    psi = singlet_state()
    worst_resid = worst_match = worst_orth = worst_mean = 0.0
    hermitian_ok = True
    for config in _random_configs(seed=109, count=1000):
        op = build_t(config)
        hermitian_ok &= is_hermitian(op.matrix, 1e-13)
        summary = t_spectrum(op)
        w, v = summary.eigen.eigenvalues, summary.eigen.eigenvectors
        for k in range(4):
            worst_resid = max(worst_resid, float(np.linalg.norm(op.matrix @ v[:, k] - w[k] * v[:, k])))
        worst_match = max(worst_match, float(np.min(np.abs(np.abs(w) - summary.t0))))
        if abs(summary.t0 - summary.t1) >= 1e-8:
            companion = [i for i in range(4)
                         if abs(abs(w[i]) - summary.t1) < abs(abs(w[i]) - summary.t0)]
            for i in companion:
                worst_orth = max(worst_orth, float(abs(psi.conj() @ v[:, i])))
        else:
            plus = summary.eigen.projector([i for i in range(4) if w[i] > 0])
            minus = summary.eigen.projector([i for i in range(4) if w[i] <= 0])
            p_plus = float((psi.conj() @ plus @ psi).real)
            p_minus = float((psi.conj() @ minus @ psi).real)
            worst_orth = max(worst_orth, abs(p_plus + p_minus - 1.0))
        matrix_mean = float((psi.conj() @ op.matrix @ psi).real)
        dist = t_distribution(config)
        law_mean = dist.t0 * dist.weight_plus - dist.t0 * dist.weight_minus
        formula = t_mean(config)
        worst_mean = max(worst_mean, abs(formula - matrix_mean), abs(formula - law_mean))
    ok = (
        hermitian_ok
        and worst_resid <= 1e-10
        and worst_match <= 1e-9
        and worst_orth <= 1e-10
        and worst_mean <= 1e-12
    )
    _report(
        9,
        "1000 random configs: Hermitian, residuals<=1e-10 "
        f"(got {worst_resid:.2e}), t0 match<=1e-9 (got {worst_match:.2e}), "
        f"orthogonality<=1e-10 (got {worst_orth:.2e}), mean chain<=1e-12 (got {worst_mean:.2e})",
        ok,
    )


def test_square_identity_on_the_spectral_suite():
    # Landau's identity T^2 = 4I - [A1, A2] x [B1, B2] on the criterion-9 configs
    worst = 0.0
    for config in _random_configs(seed=109, count=1000):
        t = build_t(config).matrix
        a1, a2, b1, b2 = config.astuple()
        rhs = chsh_square(commutator(a1, a2), commutator(b1, b2))
        worst = max(worst, float(np.max(np.abs(t @ t - rhs))))
    assert worst <= 1e-12, worst


def test_criterion_10_outcome_law_validity():
    report = grid_scan("t_validity_margin", 24)
    grid_ok = report.min_value >= -1e-9 and report.n_violations == 0
    worst = math.inf
    for config in _random_configs(seed=110, count=100_000):
        worst = min(worst, t0_closed_form(config) - abs(t_mean(config)))
    _report(
        10,
        f"t0 - |E| >= -1e-9 on the 24^4 lattice and 1e5 random configs (worst {worst:.3e})",
        grid_ok and worst >= -1e-9,
    )


def test_criterion_11_cli_reproducibility(capsys):
    invocations = [
        ["correlate", "--alpha", "0.7853981633974483", "--beta", "0.39269908169872414"],
        ["chsh", "--mode", "quantum", "--alpha1", "0.7853981633974483", "--alpha2", "0",
         "--beta1", "0.39269908169872414", "--beta2", "1.1780972450961724",
         "--trials", "20000", "--seed", "42"],
        ["constrained", "eval", "--q", "0.25,-0.5,0.75,-0.25", "--format", "json"],
        ["spectrum", "--alpha1", "1.0", "--alpha2", "0.2", "--beta1", "0.6", "--beta2", "2.2",
         "--format", "json"],
        ["simulate", "--alpha1", "0.9", "--alpha2", "0.1", "--beta1", "0.4", "--beta2", "1.3",
         "--trials", "5000", "--seed", "5"],
        ["scan", "--objective", "eight_variable_sum", "--resolution", "6", "--restarts", "3",
         "--seed", "6"],
    ]
    ok = True
    for argv in invocations:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        ok &= code1 == 0 and code2 == 0 and out1.encode() == out2.encode()
    _report(11, "repeated CLI invocations are byte-identical for fixed seed and flags", ok)
