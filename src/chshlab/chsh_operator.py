"""The CHSH observable: a single Hermitian operator on the two-photon space
whose mean in the singlet state equals the full CHSH combination.

Throughout this module T denotes the 4x4 operator

    T = A(alpha1) x B(beta1) + A(alpha1) x B(beta2)
      + A(alpha2) x B(beta1) - A(alpha2) x B(beta2),

built from the analyzer operators of :mod:`chshlab.quantum`. T is Hermitian
and traceless, with spectrum {+t0, -t0, +t1, -t1} where

    t0 = 2 sqrt(1 - sin(2(alpha1 - alpha2)) sin(2(beta1 - beta2))).

The singlet state lies entirely inside the +-t0 eigenspaces, so measuring T
on it yields only the two outcomes +-t0, with weights fixed by the mean
value E = q1 + q2 + q3 - q4. The companion magnitude t1 is computed
numerically from the spectrum; empirically it obeys the mirror formula
2 sqrt(1 + sin sin) (equivalently t0^2 + t1^2 = 8), an observation of this
package's numerics that the exposed contract does not rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import SpectralDecomposition, hermitian_eigen, tensor_product
from .lhv import AngleConfig
from .montecarlo import CorrelationEstimate, signs, stream_estimate
from .quantum import analyzer_operator, singlet_state

# Spectra whose +- pairing is broken beyond this signal a construction bug.
SYMMETRY_TOL = 1e-10

# Below this t0 the two-outcome law is undefined (0/0 weights).
T0_FLOOR = 1e-12

# Largest |E| - t0 taken as rounding; the scans verify t0 - |E| >= 0 with
# the same slack.
MEAN_SLACK = 1e-9

# Eigenvalues closer than this form one degenerate cluster.
CLUSTER_TOL = 1e-9


class AsymmetricSpectrumError(RuntimeError):
    """Eigenvalues failed to pair up as {+m, -m, +m', -m'}."""


class DegenerateSpectrumError(ValueError):
    """t0 is numerically zero, so outcome weights are undefined."""


@dataclass(frozen=True)
class ChshOperator:
    """An analyzer configuration with its assembled 4x4 observable."""

    config: AngleConfig
    matrix: np.ndarray


@dataclass(frozen=True)
class TSpectralSummary:
    """Spectral data of one CHSH observable.

    ``t0`` is the closed-form outcome magnitude, ``t1`` the numerically
    identified companion magnitude, ``mean_value`` the singlet mean E, and
    ``eigen`` the full decomposition (ascending eigenvalues).
    """

    t0: float
    t1: float
    mean_value: float
    eigen: SpectralDecomposition


@dataclass(frozen=True)
class TOutcomeDistribution:
    """Two-point outcome law on {+t0, -t0} for the singlet state."""

    t0: float
    weight_plus: float
    weight_minus: float


def build_t(config: AngleConfig) -> ChshOperator:
    """Assemble the signed sum of the four tensor-product observables."""
    a1 = analyzer_operator(config.alpha1)
    a2 = analyzer_operator(config.alpha2)
    b1 = analyzer_operator(config.beta1)
    b2 = analyzer_operator(config.beta2)
    matrix = (
        tensor_product(a1, b1)
        + tensor_product(a1, b2)
        + tensor_product(a2, b1)
        - tensor_product(a2, b2)
    )
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


def t_spectrum(op: ChshOperator, tol: float = 1e-12) -> TSpectralSummary:
    """Eigendecompose the observable and identify the two magnitudes.

    The eigenvalue pair matching the closed-form t0 within 1e-9 is labeled
    t0; the remaining pair is t1. Raises AsymmetricSpectrumError when the
    spectrum is not symmetric about zero within tolerance.
    """
    eigen = hermitian_eigen(op.matrix, tol)
    w = eigen.eigenvalues
    if abs(w[0] + w[3]) > SYMMETRY_TOL or abs(w[1] + w[2]) > SYMMETRY_TOL:
        raise AsymmetricSpectrumError(f"eigenvalues not symmetric about zero: {w}")
    t0 = t0_closed_form(op.config)
    outer, inner = w[3], w[2]
    if abs(outer - t0) <= abs(inner - t0):
        matched, t1 = outer, inner
    else:
        matched, t1 = inner, outer
    if abs(matched - t0) > 1e-9:
        raise AsymmetricSpectrumError(
            f"no eigenvalue pair matches the closed-form magnitude {t0}: {w}"
        )
    return TSpectralSummary(t0=t0, t1=float(t1), mean_value=t_mean(op.config), eigen=eigen)


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

    One uniform per draw; u < weight_plus gives +t0, the rest -t0. Only the
    count of +t0 outcomes is kept, so the mean is t0 times the exact mean
    of the signs. Raises ValueError for n < 2.
    """
    dist = t_distribution(config)

    def draw_chunk(size):
        return signs(rng.random(size) < dist.weight_plus)

    return stream_estimate(n, draw_chunk, (-1, 1), scale=dist.t0)


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
