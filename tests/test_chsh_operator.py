import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chshlab import kernels
from chshlab.chsh_operator import (
    MEAN_SLACK,
    AsymmetricSpectrumError,
    ChshOperator,
    DegenerateSpectrumError,
    build_t,
    singlet_overlaps,
    t0_closed_form,
    t_distribution,
    t_estimate,
    t_mean,
    t_spectrum,
)
from chshlab.lhv import AngleConfig, tsirelson_angles
from chshlab.linalg import SpectralDecomposition, is_hermitian, tensor_product
from chshlab.quantum import analyzer_operator, singlet_state

from oracles import charpoly_eigenvalues, chsh_matrices, dense_two_point, random_angle_tuple

SQRT8 = 2.0 * math.sqrt(2.0)

# all angles equal: the four tensor terms collapse to 2 A x B
COLLAPSED = AngleConfig(0.7, 0.7, 0.2, 0.2)
# zero mean value: alpha1 = alpha2 and beta1 = pi/4 away from them
ZERO_MEAN = AngleConfig(0.0, 0.0, math.pi / 4, 1.0)
# vanishing t0: both angle gaps a quarter turn of the doubled angle
ZERO_T0 = AngleConfig(math.pi / 4, 0.0, math.pi / 4, 0.0)
# near t0 = 0, where |E|/t0 read 1.00007 from rounding alone
ROUNDED_PAST_T0 = AngleConfig(
    0.7853981633975285, -2.2552826080050498e-13, 0.7853981633975614, -1.97633124032897e-13
)
# the two t0 = 0 families (both angle gaps +pi/4 or both -pi/4), each gap
# moved by 1e-16 to 1e-10
_offset = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-16.0, -10.0), st.sampled_from((1.0, -1.0)))
NEAR_ZERO_T0 = st.builds(
    lambda a2, b2, quarter, da, db: AngleConfig(a2 + quarter + da, a2, b2 + quarter + db, b2),
    st.floats(0.0, math.pi),
    st.floats(0.0, math.pi),
    st.sampled_from((math.pi / 4, -math.pi / 4)),
    _offset,
    _offset,
)


def random_config(rng):
    return AngleConfig(*random_angle_tuple(rng))


class TestBuildT:
    def test_collapsed_config_is_twice_one_term(self):
        op = build_t(COLLAPSED)
        expected = 2.0 * tensor_product(analyzer_operator(0.7), analyzer_operator(0.2))
        assert np.max(np.abs(op.matrix - expected)) <= 1e-15

    def test_collapsed_spectrum_and_t0(self):
        summary = t_spectrum(build_t(COLLAPSED))
        assert np.allclose(np.abs(summary.eigen.eigenvalues), 2.0, atol=1e-12)
        assert summary.t0 == pytest.approx(2.0, abs=1e-15)

    def test_max_violation_t0(self):
        assert t0_closed_form(tsirelson_angles()) == pytest.approx(SQRT8, abs=1e-12)

    def test_hermitian_and_traceless(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            op = build_t(random_config(rng))
            assert is_hermitian(op.matrix, 1e-13)
            assert abs(np.trace(op.matrix)) <= 1e-13


class TestSpectrum:
    def test_max_violation_structure(self):
        summary = t_spectrum(build_t(tsirelson_angles()))
        w = summary.eigen.eigenvalues
        assert abs(w[0] + SQRT8) <= 1e-10
        assert abs(w[3] - SQRT8) <= 1e-10
        assert summary.t1 == pytest.approx(0.0, abs=1e-10)
        # the companion pair carries no singlet weight
        overlaps = singlet_overlaps(summary)
        assert overlaps[1] <= 1e-10 and overlaps[2] <= 1e-10

    def test_symmetric_pairing_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            summary = t_spectrum(build_t(random_config(rng)))
            w = summary.eigen.eigenvalues
            expected = np.sort([-summary.t0, -summary.t1, summary.t1, summary.t0])
            assert np.max(np.abs(w - expected)) <= 1e-10

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            op = build_t(random_config(rng))
            summary = t_spectrum(op)
            roots = charpoly_eigenvalues(op.matrix)
            assert np.max(np.abs(summary.eigen.eigenvalues - np.array(roots))) <= 1e-9

    def test_companion_magnitude_mirror_form(self):
        # the closed-form spectrum {+-t0, +-t1}, written out by hand:
        # t0, t1 = 2 sqrt(1 -+ sin(2(a1-a2)) sin(2(b1-b2))), so t0^2 + t1^2 = 8
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = random_config(rng)
            w = t_spectrum(build_t(cfg)).eigen.eigenvalues
            sin_sin = math.sin(2.0 * (cfg.alpha1 - cfg.alpha2)) * math.sin(2.0 * (cfg.beta1 - cfg.beta2))
            t0 = 2.0 * math.sqrt(max(0.0, 1.0 - sin_sin))
            mirror = 2.0 * math.sqrt(max(0.0, 1.0 + sin_sin))
            assert np.max(np.abs(w - np.sort([-t0, -mirror, mirror, t0]))) <= 1e-9
            assert w[2] ** 2 + w[3] ** 2 == pytest.approx(8.0, abs=1e-9)

    def test_companion_eigenvectors_orthogonal_to_singlet(self):
        psi = singlet_state()
        rng = np.random.default_rng(24)
        for _ in range(200):
            summary = t_spectrum(build_t(random_config(rng)))
            w = summary.eigen.eigenvalues
            if abs(summary.t0 - summary.t1) < 1e-8:
                # degenerate: only projector-level statements survive; the
                # Born weights recovered from the +-t0 eigenprojectors must
                # reproduce the mean value
                plus = [i for i in range(4) if w[i] > 0]
                minus = [i for i in range(4) if w[i] <= 0]
                p_plus = float((psi.conj() @ summary.eigen.projector(plus) @ psi).real)
                p_minus = float((psi.conj() @ summary.eigen.projector(minus) @ psi).real)
                assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)
                mean = summary.t0 * (p_plus - p_minus)
                assert abs(mean - summary.mean_value) <= 1e-9
            else:
                companion = [i for i in range(4) if abs(abs(w[i]) - summary.t1) < abs(abs(w[i]) - summary.t0)]
                assert len(companion) == 2
                for i in companion:
                    assert abs(psi.conj() @ summary.eigen.eigenvectors[:, i]) <= 1e-10

    def test_degenerate_overlaps_do_not_depend_on_the_eigenbasis(self):
        summary = t_spectrum(build_t(AngleConfig(0.6, 0.6, 0.2, 0.2)))
        w = summary.eigen.eigenvalues
        clusters = ([0, 1], [2, 3])  # spectrum {-2, -2, 2, 2}
        assert abs(w[1] - w[0]) <= 1e-9 and abs(w[3] - w[2]) <= 1e-9
        expected = singlet_overlaps(summary)
        psi = singlet_state()
        for cluster in clusters:
            norm = math.sqrt(float((psi.conj() @ summary.eigen.projector(cluster) @ psi).real))
            assert expected[cluster[0]] == pytest.approx(norm, abs=1e-12)
            assert expected[cluster[1]] == 0.0
        rng = np.random.default_rng(30)
        for _ in range(20):
            v = summary.eigen.eigenvectors.copy()
            for cluster in clusters:
                u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                v[:, cluster] = v[:, cluster] @ u
            rotated = dataclasses.replace(summary, eigen=SpectralDecomposition(w, v))
            assert np.max(np.abs(singlet_overlaps(rotated) - expected)) <= 1e-12

    def test_rejects_asymmetric_matrix(self):
        op = build_t(tsirelson_angles())
        broken = op.matrix + np.diag([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(AsymmetricSpectrumError):
            t_spectrum(type(op)(config=op.config, matrix=broken))

    def test_stack_equals_scalar_calls_bitwise(self):
        angles = np.random.default_rng(43).uniform(0.0, math.pi, (200, 4))
        op = build_t(AngleConfig(*angles.T))
        stack = t_spectrum(op)
        for i, row in enumerate(angles.tolist()):
            one_op = build_t(AngleConfig(*row))
            one = t_spectrum(one_op)
            assert np.array_equal(op.matrix[i], one_op.matrix)
            for field in ("t0", "t1", "mean_value"):
                assert np.array_equal(getattr(stack, field)[i], getattr(one, field))
            assert np.array_equal(stack.eigen.eigenvalues[i], one.eigen.eigenvalues)
            assert np.array_equal(stack.eigen.eigenvectors[i], one.eigen.eigenvectors)

    def test_stack_with_one_broken_row_raises(self):
        angles = np.random.default_rng(44).uniform(0.0, math.pi, (50, 4))
        op = build_t(AngleConfig(*angles.T))
        broken = op.matrix.copy()
        broken[17] += np.diag([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(AsymmetricSpectrumError, match="symmetric"):
            t_spectrum(ChshOperator(op.config, broken))

    def test_reports_the_closed_form_companion(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            cfg = random_config(rng)
            assert t_spectrum(build_t(cfg)).t1 == float(kernels.t1(*cfg.astuple()))

    def test_rejects_eigenvalues_off_the_closed_form(self, monkeypatch):
        # symmetric about zero, but t1 = 1 where the closed form says 0
        from chshlab import chsh_operator

        op = build_t(tsirelson_angles())
        fake = SpectralDecomposition(np.array([-SQRT8, -1.0, 1.0, SQRT8]), np.eye(4, dtype=complex))
        monkeypatch.setattr(chsh_operator, "hermitian_eigen", lambda m: fake)
        with pytest.raises(AsymmetricSpectrumError, match="closed form"):
            t_spectrum(op)

    @pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
    def test_never_raises_up_to_the_angle_limit(self, degrees):
        # 10^5 configs with |angle| <= 1e6 in the flag's unit, the CLI limit
        angles = np.random.default_rng(41 + degrees).uniform(-1e6, 1e6, (100_000, 4))
        if degrees:
            angles = np.vectorize(math.radians)(angles)
        matrices = chsh_matrices(angles)
        config = AngleConfig(*angles.T)
        assert np.array_equal(build_t(config).matrix, matrices)
        t_spectrum(ChshOperator(config, matrices))

    def test_stack_memory_is_bounded(self):
        # The four tensor terms are summed as they are formed, never held as one stack.
        angles = np.random.default_rng(43).uniform(0.0, math.pi, (10_000, 4))
        config = AngleConfig(*angles.T)
        tracemalloc.start()
        try:
            matrix = build_t(config).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * matrix.nbytes


class TestClosedForm:
    def test_magnitude_chain_on_the_scan_slab(self):
        # |E| <= t0 <= 2 sqrt 2 at every point of the res-24 alpha2 = 0 slab
        ax = np.arange(24) / 24 * math.pi
        a1, b1, b2 = np.meshgrid(ax, ax, ax, indexing="ij")
        self.check_chain(a1, np.zeros_like(a1), b1, b2)

    def test_magnitude_chain_random(self):
        self.check_chain(*np.random.default_rng(42).uniform(0.0, math.pi, (4, 100_000)))

    @staticmethod
    def check_chain(*angles):
        t0 = kernels.t0(*angles)
        mean = kernels.eight_variable_sum(*kernels.q_quad(*angles))
        assert np.all(np.abs(mean) <= t0 + MEAN_SLACK)
        assert np.all(t0 <= SQRT8)


class TestMeanValue:
    def test_max_violation(self):
        assert t_mean(tsirelson_angles()) == pytest.approx(-SQRT8, abs=1e-12)

    def test_all_equal_angles(self):
        assert t_mean(AngleConfig(0.4, 0.4, 0.4, 0.4)) == pytest.approx(-2.0, abs=1e-15)


class TestOutcomeDistribution:
    def test_max_violation_is_deterministic(self):
        dist = t_distribution(tsirelson_angles())
        assert dist.weight_plus == pytest.approx(0.0, abs=1e-15)
        assert dist.weight_minus == pytest.approx(1.0, abs=1e-15)

    def test_zero_mean_config_is_symmetric(self):
        dist = t_distribution(ZERO_MEAN)
        assert dist.weight_plus == pytest.approx(0.5, abs=1e-15)
        assert dist.weight_minus == pytest.approx(0.5, abs=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(27)
        for _ in range(1000):
            dist = t_distribution(random_config(rng))
            assert dist.weight_plus >= 0.0 and dist.weight_minus >= 0.0
            assert abs(dist.weight_plus + dist.weight_minus - 1.0) <= 1e-13

    def test_weight_formula(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            cfg = random_config(rng)
            dist = t_distribution(cfg)
            expected = (1.0 + t_mean(cfg) / dist.t0) / 2.0
            assert abs(dist.weight_plus - expected) <= 1e-12

    def test_zero_t0_raises(self):
        assert t0_closed_form(ZERO_T0) <= 1e-12
        with pytest.raises(DegenerateSpectrumError):
            t_distribution(ZERO_T0)

    @settings(max_examples=200)
    @example(ROUNDED_PAST_T0)
    @given(NEAR_ZERO_T0)
    def test_rounding_near_zero_t0_never_raises(self, cfg):
        try:
            dist = t_distribution(cfg)
        except DegenerateSpectrumError:
            return
        assert 0.0 <= dist.weight_plus <= 1.0 and 0.0 <= dist.weight_minus <= 1.0
        assert abs(dist.weight_plus + dist.weight_minus - 1.0) <= 1e-15

    def test_mean_beyond_t0_raises(self, monkeypatch):
        from chshlab import chsh_operator

        monkeypatch.setattr(chsh_operator, "t_mean", lambda cfg: t0_closed_form(cfg) + 1e-3)
        with pytest.raises(AsymmetricSpectrumError):
            t_distribution(tsirelson_angles())

    def test_mean_never_exceeds_t0(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            cfg = random_config(rng)
            assert t0_closed_form(cfg) - abs(t_mean(cfg)) >= -1e-12


class TestSampling:
    def test_max_violation_samples_are_constant(self):
        est = t_estimate(tsirelson_angles(), 1000, np.random.default_rng(30))
        assert est.mean == -SQRT8
        assert est.stderr == 0.0

    def test_zero_mean_config(self):
        n = 100_000
        dist = t_distribution(ZERO_MEAN)
        est = t_estimate(ZERO_MEAN, n, np.random.default_rng(31))
        mean, _, _ = dense_two_point(dist.t0, dist.weight_plus, n, np.random.default_rng(31))
        assert est.n_samples == n
        assert est.mean == mean
        assert abs(est.mean) <= 4.0 * dist.t0 / math.sqrt(n)

    def test_random_config_statistics(self):
        n = 200_000
        cfg = AngleConfig(1.0, 0.3, 2.1, 0.9)
        dist = t_distribution(cfg)
        est = t_estimate(cfg, n, np.random.default_rng(32))
        mean, stderr, _ = dense_two_point(dist.t0, dist.weight_plus, n, np.random.default_rng(32))
        assert est.mean == mean
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert abs(est.mean - t_mean(cfg)) <= 4.0 * est.stderr + 1e-12

    def test_zero_t0_propagates(self):
        with pytest.raises(DegenerateSpectrumError):
            t_estimate(ZERO_T0, 10, np.random.default_rng(0))

    def test_rejects_nonpositive_n(self):
        for n in (1, 0):  # an estimate needs at least 2 draws
            with pytest.raises(ValueError):
                t_estimate(ZERO_MEAN, n, np.random.default_rng(0))
