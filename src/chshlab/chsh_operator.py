"""The CHSH observable: a single Hermitian operator on the two-photon space
whose mean in the singlet state equals the full CHSH combination.

Throughout this module T denotes the 4x4 operator

    T = A(alpha1) x B(beta1) + A(alpha1) x B(beta2)
      + A(alpha2) x B(beta1) - A(alpha2) x B(beta2),

built from the analyzer operators of :mod:`chshlab.quantum`. T is Hermitian
and traceless. Landau's identity (L. J. Landau, Phys. Lett. A 120, 54
(1987); B. S. Cirel'son, Lett. Math. Phys. 4, 93 (1980))

    T^2 = 4 I - [A(alpha1), A(alpha2)] x [B(beta1), B(beta2)]

gives its spectrum in closed form, {+t0, -t0, +t1, -t1} with

    t0 = 2 sqrt(1 - sin(2(alpha1 - alpha2)) sin(2(beta1 - beta2))),
    t1 = 2 sqrt(1 + sin(2(alpha1 - alpha2)) sin(2(beta1 - beta2))),

so t0^2 + t1^2 = 8: each commutator is -2 sin(2(theta - theta')) J with
J = [[0, 1], [-1, 0]], and J x J has eigenvalues +-1. J x J fixes the
singlet, so the singlet lies entirely inside the +-t0 eigenspaces:
measuring T on it yields only the two outcomes +-t0, with weights fixed by
the mean value E = q1 + q2 + q3 - q4. By Cauchy-Schwarz,
|E| <= ||T singlet|| = t0 <= 2 sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import SpectralDecomposition, hermitian_eigen, tensor_product
from .lhv import AngleConfig
from .montecarlo import CorrelationEstimate, rule_estimate
from .quantum import analyzer_operator, singlet_state

# Spectra whose +- pairing is broken beyond this signal a construction bug.
SYMMETRY_TOL = 1e-10

# Largest gap between an eigenvalue and its closed form taken as rounding.
CLOSED_FORM_TOL = 1e-9

# Below this t0 the two-outcome law is undefined (0/0 weights).
T0_FLOOR = 1e-12

# Largest |E| - t0 taken as rounding; the scans verify t0 - |E| >= 0 with
# the same slack.
MEAN_SLACK = 1e-9

# Eigenvalues closer than this form one degenerate cluster.
CLUSTER_TOL = 1e-9


class AsymmetricSpectrumError(RuntimeError):
    """Eigenvalues are not symmetric about zero or miss the closed form {+-t0, +-t1}."""


class DegenerateSpectrumError(ValueError):
    """t0 is numerically zero, so outcome weights are undefined."""


@dataclass(frozen=True)
class ChshOperator:
    """An analyzer configuration with its assembled 4x4 observable."""

    config: AngleConfig
    matrix: np.ndarray


@dataclass(frozen=True)
class TSpectralSummary:
    """Spectral data of one CHSH observable, or of a stack of shape (...).

    ``t0``, ``t1`` (closed-form outcome and companion magnitudes) and ``mean_value``
    (the singlet mean E) have the stack's shape; ``eigen`` is the full decomposition
    (ascending eigenvalues, within 1e-9 of -t0, -t1, t1, t0 sorted).
    """

    t0: float | np.ndarray
    t1: float | np.ndarray
    mean_value: float | np.ndarray
    eigen: SpectralDecomposition


@dataclass(frozen=True)
class TOutcomeDistribution:
    """Two-point outcome law on {+t0, -t0} for the singlet state."""

    t0: float
    weight_plus: float
    weight_minus: float


def build_t(config: AngleConfig) -> ChshOperator:
    """Assemble T; a config of angle arrays (...) gives a stack (..., 4, 4).

    The four tensor terms are summed in :data:`chshlab.kernels.PAIRS` order
    as they are formed, so a stack never holds more than one term beside
    the sum.
    """
    f = analyzer_operator(config.astuple())
    (i0, j0), (i1, j1), (i2, j2), (i3, j3) = kernels.PAIRS
    matrix = tensor_product(f[i0], f[j0])
    matrix += tensor_product(f[i1], f[j1])
    matrix += tensor_product(f[i2], f[j2])
    matrix -= tensor_product(f[i3], f[j3])
    matrix.setflags(write=False)
    return ChshOperator(config=config, matrix=matrix)


def t0_closed_form(config: AngleConfig) -> float:
    """Outcome magnitude 2 sqrt(1 - sin(2(a1 - a2)) sin(2(b1 - b2))).

    Uses the cancellation-free sum-of-squares form of
    :func:`chshlab.kernels.t0`, which keeps full relative accuracy near
    t0 = 0, where the validity margin t0 - |E| probes.
    """
    return float(kernels.t0(*config.astuple()))


def t_mean(config: AngleConfig) -> float:
    """Singlet mean value E of the CHSH observable.

    E = q1 + q2 + q3 - q4, i.e. minus the signed sum of the four setting
    cosines. Agrees with the explicit matrix mean and with the mean of the
    two-point outcome law to floating-point accuracy.
    """
    return float(kernels.eight_variable_sum(*kernels.q_quad(*config.astuple())))


def t_spectrum(op: ChshOperator) -> TSpectralSummary:
    """Eigendecompose the observable and check it against the closed form.

    Takes one observable or a stack (..., 4, 4). Raises AsymmetricSpectrumError,
    naming the worst matrix, when the ascending eigenvalues are not symmetric
    about zero within SYMMETRY_TOL, or when any of them is more than
    CLOSED_FORM_TOL from the sorted closed form (-t0, -t1, t1, t0).
    """
    eigen = hermitian_eigen(op.matrix)
    w = eigen.eigenvalues.reshape(-1, 4)
    gap = np.abs(w + w[:, ::-1])
    if gap.max(initial=0.0) > SYMMETRY_TOL:
        raise AsymmetricSpectrumError(f"eigenvalues not symmetric about zero: {w[gap.argmax() // 4]}")
    angles = op.config.astuple()
    t0, t1 = kernels.t0(*angles), kernels.t1(*angles)
    gap = np.abs(w - np.sort(np.array([-t0, -t1, t1, t0]).reshape(4, -1).T))
    if gap.max(initial=0.0) > CLOSED_FORM_TOL:
        i = gap.argmax() // 4
        raise AsymmetricSpectrumError(
            f"eigenvalues do not match the closed form +-{np.ravel(t0)[i]}, +-{np.ravel(t1)[i]}: {w[i]}"
        )
    mean = kernels.eight_variable_sum(*kernels.q_quad(*angles))
    return TSpectralSummary(t0=t0, t1=t1, mean_value=mean, eigen=eigen)


def t_distribution(config: AngleConfig) -> TOutcomeDistribution:
    """Two-point outcome law: weights (1 +- E/t0)/2 on +-t0.

    Raises DegenerateSpectrumError when t0 is numerically zero (possible
    only when the radicand of the closed form vanishes).
    """
    t0 = t0_closed_form(config)
    if t0 <= T0_FLOOR:
        raise DegenerateSpectrumError("t0 is zero; the outcome distribution is undefined")
    mean = t_mean(config)
    # E carries absolute rounding of about 1e-15, so near t0 = 0 only an
    # absolute slack tells rounding from a real |E| > t0.
    if abs(mean) > t0 + MEAN_SLACK:
        raise AsymmetricSpectrumError(f"|E| = {abs(mean)} exceeds t0 = {t0} by more than rounding")
    ratio = min(1.0, max(-1.0, mean / t0))
    return TOutcomeDistribution(
        t0=t0, weight_plus=(1.0 + ratio) / 2.0, weight_minus=(1.0 - ratio) / 2.0
    )


def t_estimate(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Monte Carlo mean of n single-shot outcomes on the singlet, in bounded memory.

    One 32-bit half k of :func:`chshlab.montecarlo.draw_raw32` per draw, read
    by the integer cut rule (True, [weight_plus]) on u = k 2^-32: +t0 for u
    below weight_plus, else -t0, within 2^-32 of the weights. Only the +t0 count is
    kept: the mean is t0 times the exact sign mean. Raises ValueError for n < 2.
    """
    dist = t_distribution(config)
    return rule_estimate(n, rng, [(True, [dist.weight_plus])], scale=dist.t0)


def singlet_overlaps(summary: TSpectralSummary) -> np.ndarray:
    """Overlap of the singlet with each eigenvector, in spectrum order.

    For a simple eigenvalue this is |<singlet | eigenvector_i>|. Inside a
    degenerate cluster (consecutive eigenvalues within ``CLUSTER_TOL``) only
    the eigenspace is defined, so the first row of the cluster carries the
    norm of the singlet's projection onto it and the other rows 0: the
    overlaps in the eigenbasis whose first vector lies along that
    projection, whatever basis the eigensolver returned.
    """
    psi = singlet_state()
    amplitudes = np.abs(psi.conj() @ summary.eigen.eigenvectors).tolist()
    w = summary.eigen.eigenvalues
    overlaps = np.zeros(len(amplitudes))
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > CLUSTER_TOL:
            overlaps[start] = math.hypot(*amplitudes[start:i])
            start = i
    return overlaps
