"""Two-photon singlet model: analyzer operators, correlations, and the
joint outcome distribution of one polarization-analyzer pair.

Angles are plain floats in radians. Every formula here is pi-periodic in
each analyzer angle (only doubled angles appear), and angles are accepted
as arbitrary reals without normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import tensor_product
from .montecarlo import CorrelationEstimate, signs, stream_estimate

# Joint outcomes enumerated in a fixed order; samplers and tables rely on it.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def singlet_state() -> np.ndarray:
    """The singlet polarization state (|x y> - |y x>)/sqrt(2).

    Returned in the 4-entry basis order of :func:`chshlab.linalg.tensor_product`:
    exactly (0, 1/sqrt(2), -1/sqrt(2), 0).
    """
    r = 1.0 / math.sqrt(2.0)
    return np.array([0.0, r, -r, 0.0], dtype=complex)


def analyzer_state(theta: float) -> np.ndarray:
    """Unit vector (cos theta, sin theta) of a linear analyzer at angle theta."""
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def analyzer_operator(theta: float) -> np.ndarray:
    """The +-1 valued polarization observable 2|theta><theta| - I.

    Equals [[cos 2t, sin 2t], [sin 2t, -cos 2t]]: Hermitian, traceless, and
    squaring to the identity, so its eigenvalues are exactly +1 and -1.
    """
    s = analyzer_state(theta)
    return 2.0 * np.outer(s, s.conj()) - np.eye(2, dtype=complex)


def commutator(theta: float, theta_prime: float) -> np.ndarray:
    """F(theta) F(theta') - F(theta') F(theta) for two analyzer operators.

    Equals -2 sin(2(theta - theta')) times the antisymmetric matrix
    [[0, 1], [-1, 0]], so it is anti-Hermitian and vanishes whenever the
    angle difference is a multiple of pi/2.
    """
    f = analyzer_operator(theta)
    g = analyzer_operator(theta_prime)
    return f @ g - g @ f


def singlet_correlation(alpha: float, beta: float) -> float:
    """Mean of the joint observable A(alpha) x B(beta) in the singlet state.

    Computed by explicit matrix arithmetic; agrees with the closed form
    -cos(2(alpha - beta)) to floating-point accuracy.
    """
    psi = singlet_state()
    op = tensor_product(analyzer_operator(alpha), analyzer_operator(beta))
    return float((psi.conj() @ op @ psi).real)


@dataclass(frozen=True)
class PairOutcomeDistribution:
    """Probabilities over the four joint outcomes (x, y) of one photon pair.

    ``probs`` maps each (k, l) in OUTCOME_ORDER to its probability. For a
    singlet pair, summing ``probs`` over either outcome gives the marginal
    (1/2, 1/2) regardless of analyzer settings.
    """

    probs: dict[tuple[int, int], float]

    def probability(self, k: int, l: int) -> float:
        return self.probs[(k, l)]

    def as_array(self) -> np.ndarray:
        """Probabilities in OUTCOME_ORDER."""
        return np.array([self.probs[o] for o in OUTCOME_ORDER])

    def product_mean(self) -> float:
        """Exact E[X Y] by summation over the four outcomes."""
        return sum(k * l * p for (k, l), p in self.probs.items())


def joint_distribution(alpha: float, beta: float) -> PairOutcomeDistribution:
    """Singlet joint outcome law: P(k, l) = (1 + k l q)/4, q = -cos(2(alpha - beta))."""
    q = float(kernels.pair_correlation(alpha, beta))
    return PairOutcomeDistribution(
        probs={(k, l): (1.0 + k * l * q) / 4.0 for (k, l) in OUTCOME_ORDER}
    )


def _product_cuts(dist: PairOutcomeDistribution) -> tuple[float, float]:
    # The inverse CDF of sample_pairs gives x*y = +1 exactly when
    # u < cum[0] (outcome (1, 1)) or u >= cum[2] (outcome (-1, -1)).
    cum = np.cumsum(dist.as_array())
    if not np.all(np.isfinite(cum)):
        raise ValueError("outcome probabilities must be finite")
    return float(cum[0]), float(cum[2])


def _product_is_plus(u: np.ndarray, cuts: tuple[float, float]) -> np.ndarray:
    """x*y == +1 for each uniform, as a bool array; same rule as the inverse CDF."""
    lo, hi = cuts
    return (u < lo) | (u >= hi)


def sample_pairs(
    dist: PairOutcomeDistribution, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling of ``n`` joint outcomes (one uniform per sample).

    Inverse CDF over OUTCOME_ORDER. Returns (x, y) integer arrays with
    entries in {-1, +1}; the empirical mean of x*y converges to
    :func:`singlet_correlation` at the usual 1/sqrt(n) rate.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cum = np.cumsum(dist.as_array())
    idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), 3)
    table = np.array(OUTCOME_ORDER)
    return table[idx, 0], table[idx, 1]


def product_estimate(
    dist: PairOutcomeDistribution, n: int, rng: np.random.Generator
) -> CorrelationEstimate:
    """Monte Carlo mean of x*y over ``n`` sampled pairs, in bounded memory.

    Consumes the same uniforms, in the same order, as :func:`sample_pairs`
    with the same ``n``, and its mean equals the mean of x*y over those
    samples exactly; only the count of x*y = +1 is kept.
    """
    cuts = _product_cuts(dist)

    def draw_chunk(size):
        return signs(_product_is_plus(rng.random(size), cuts))

    return stream_estimate(n, draw_chunk, (-1, 1))
