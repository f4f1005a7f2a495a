"""The sign model, a local hidden-variable model, and the two CHSH protocols.

The sign model draws a latent value lambda ~ U[0, pi) per emitted photon
pair and answers each analyzer deterministically:
A(alpha, lambda) = sign(cos 2(alpha - lambda)) and B(beta, lambda) =
-A(beta, lambda). That gives perfect anticorrelation at equal settings and
the sawtooth correlation -1 + 4 d / pi, where d folds |alpha - beta| into
[0, pi/2]. Two protocols are implemented:

* same-lambda: all four analyzer combinations are evaluated on a single
  lambda draw per trial. The per-trial combination
  (a1 + a2) b1 + (a1 - a2) b2 is then identically +-2, so the estimated
  mean lies in [-2, 2] deterministically, not just statistically.
* independent-pairs: each trial uses four photon pairs with independent
  latent values lambda_1..lambda_4, one analyzer combination each, and
  accumulates a1 b1 + a2 b2 + a3 b3 - a4 b4, which is only bounded by
  [-4, 4].

The quantum analogue of the independent-pairs protocol samples the four
pair outcomes from the singlet joint law instead of a shared lambda; its
mean converges to the sum of the four singlet correlations.

Every estimator streams its trials through :mod:`chshlab.montecarlo`:
MC_CHUNK trials at a time, reduced to counts of the per-trial values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .montecarlo import MC_CHUNK, CorrelationEstimate, signs, stream_estimate
from .quantum import _product_cuts, _product_is_plus, joint_distribution

# Per-trial values of the two protocols.
_SAME_LAMBDA_VALUES = (-2, 2)
_INDEPENDENT_VALUES = (-4, -2, 0, 2, 4)


@dataclass(frozen=True)
class AngleConfig:
    """The four analyzer angles (radians) parameterizing a CHSH run."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


def tsirelson_angles() -> AngleConfig:
    """The standard maximal-violation configuration (pi/4, 0, pi/8, 3pi/8)."""
    return AngleConfig(math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8)


def angle_pairs(config: AngleConfig) -> tuple[tuple[float, float], ...]:
    """Analyzer settings of the four pairs in the independent-pairs protocol.

    Pair n gets (alpha, beta) from the fixed assignment :data:`chshlab.kernels.PAIRS`:
    ((alpha1, beta1), (alpha1, beta2), (alpha2, beta1), (alpha2, beta2)).
    """
    angles = config.astuple()
    return tuple((angles[i], angles[j]) for i, j in kernels.PAIRS)


# Draws closer than _ARC_GUARD to an arc endpoint take the cosine rule.
# Below _ARC_LIMIT in |angle| and |lam| the rounding of the endpoints, of
# folding lam into [0, pi] and of the cosine rule's own angle - lam stays
# under 1e-12, far inside the guard.
_ARC_GUARD = 1e-9
_ARC_LIMIT = 1e3


def _cos_sign(angle, lam) -> np.ndarray:
    return np.where(np.cos(2.0 * (np.asarray(angle) - lam)) >= 0.0, 1, -1).astype(np.int8)


def _on_arc(lam: np.ndarray, start: float, length: float) -> np.ndarray:
    # lam in [0, pi]; the arc [start, start + length] is taken modulo pi.
    lo = start % math.pi
    hi = lo + length
    if hi <= math.pi:
        return (lam >= lo) & (lam <= hi)
    return (lam >= lo) | (lam <= hi - math.pi)


def _sign_response(angle: float, lam) -> np.ndarray:
    """sign(cos 2(angle - lam)), with sign(0) := +1 so responses are total.

    The response is +1 exactly on the closed arc [angle - pi/4, angle + pi/4]
    modulo pi, so it is read off two comparisons of lam against the arc
    endpoints, at int8 width, instead of a cosine per draw. Draws within
    _ARC_GUARD of an endpoint, and any input beyond _ARC_LIMIT, take the
    cosine rule itself, so the result equals it for every input.
    """
    lam = np.asarray(lam, dtype=float)
    if np.ndim(angle) != 0 or not abs(angle) <= _ARC_LIMIT:
        return _cos_sign(angle, lam)
    flat = lam.reshape(-1)
    if flat.size and 0.0 <= flat.min() and flat.max() <= math.pi:
        folded, far = flat, None
    else:
        folded = np.mod(flat, math.pi)
        far = ~(np.abs(flat) <= _ARC_LIMIT)
    start = angle - math.pi / 4
    inner = _on_arc(folded, start + _ARC_GUARD, math.pi / 2 - 2 * _ARC_GUARD)
    outer = _on_arc(folded, start - _ARC_GUARD, math.pi / 2 + 2 * _ARC_GUARD)
    out = signs(outer)
    near = inner != outer
    if far is not None:
        near |= far
    if near.any():
        idx = np.flatnonzero(near)
        out[idx] = _cos_sign(angle, flat[idx])
    return out.reshape(lam.shape)


def _product(alpha: float, beta: float, lam: np.ndarray) -> np.ndarray:
    # A(alpha, lam) B(beta, lam), with B = -A.
    return _sign_response(alpha, lam) * -_sign_response(beta, lam)


def correlation_mc(alpha: float, beta: float, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Monte Carlo mean of A(alpha, lambda) B(beta, lambda) over n draws lambda ~ U[0, pi)."""
    return stream_estimate(n, lambda size: _product(alpha, beta, rng.uniform(0.0, math.pi, size)), (-1, 1))


def correlation_quadrature(alpha: float, beta: float, grid_points: int = 100_000) -> float:
    """Deterministic midpoint-rule average of A*B over lambda in [0, pi).

    Serves as the analytic oracle for :func:`correlation_mc`. grid_points
    must be at least 1000 to keep the midpoint error well under 1e-3 for
    the piecewise-constant sign responses.
    """
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    lam = (np.arange(grid_points) + 0.5) * (math.pi / grid_points)
    return float(np.mean(_product(alpha, beta, lam)))


def chsh_same_lambda(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Same-lambda protocol: one lambda per trial drives all four responses.

    Every per-trial value of (a1 + a2) b1 + (a1 - a2) b2 is +-2, so the
    returned mean is deterministically inside [-2, 2].
    """

    def draw_chunk(size):
        lam = rng.uniform(0.0, math.pi, size)
        a1 = _sign_response(config.alpha1, lam)
        a2 = _sign_response(config.alpha2, lam)
        b1 = -_sign_response(config.beta1, lam)
        b2 = -_sign_response(config.beta2, lam)
        return (a1 + a2) * b1 + (a1 - a2) * b2

    return stream_estimate(n, draw_chunk, _SAME_LAMBDA_VALUES)


def _pair_major(n: int):
    # Copies each chunk's trial-major (size, 4) draws into one reused (4, size)
    # buffer, so every pair's draws are contiguous and no chunk allocates it anew.
    buf = np.empty((4, min(n, MC_CHUNK)))

    def pair_major(draws: np.ndarray) -> np.ndarray:
        out = buf[:, : len(draws)]
        np.copyto(out, draws.T)
        return out

    return pair_major


def chsh_independent(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Independent-pairs protocol: four fresh lambdas per trial.

    Trial t draws lambda_1..lambda_4 (trial-major stream order) and
    accumulates a1 b1 + a2 b2 + a3 b3 - a4 b4 with the station settings of
    :func:`angle_pairs`. Per-trial values lie in {-4, -2, 0, 2, 4}; the mean
    is deterministically inside [-4, 4]. The same protocol with the four
    pairs drawn from the singlet law is :func:`quantum_chsh_independent`.
    """
    pairs = angle_pairs(config)
    pair_major = _pair_major(n)

    def draw_chunk(size):
        lam = pair_major(rng.uniform(0.0, math.pi, (size, 4)))
        p = [_product(alpha, beta, lam[j]) for j, (alpha, beta) in enumerate(pairs)]
        return p[0] + p[1] + p[2] - p[3]

    return stream_estimate(n, draw_chunk, _INDEPENDENT_VALUES)


def quantum_chsh_independent(
    config: AngleConfig, n: int, rng: np.random.Generator
) -> CorrelationEstimate:
    """Quantum independent-pairs run: four singlet pairs sampled per trial.

    The mean converges to q1 + q2 + q3 - q4, the signed sum of the four
    singlet correlations, whose magnitude never exceeds 2 sqrt(2).
    """
    if n < 2:
        raise ValueError("need at least 2 trials")
    cuts = [_product_cuts(joint_distribution(alpha, beta)) for alpha, beta in angle_pairs(config)]
    pair_major = _pair_major(n)

    def draw_chunk(size):
        # One uniform per pair, trial-major: draw [t, j] drives pair j+1 of
        # trial t, so after the copy u[j] holds pair j+1's uniforms.
        u = pair_major(rng.random((size, 4)))
        plus = [_product_is_plus(u[j], cuts[j]).view(np.int8) for j in range(4)]
        return (plus[0] + plus[1] + plus[2] - plus[3]) * np.int8(2) - np.int8(2)

    return stream_estimate(n, draw_chunk, _INDEPENDENT_VALUES)
