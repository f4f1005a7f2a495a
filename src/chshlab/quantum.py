"""Two-photon singlet model: analyzer operators, correlations, and the
joint outcome distribution of one polarization-analyzer pair.

Angles are floats in radians; analyzer states and operators also take an
angle array and return one per angle. Every formula here is pi-periodic
in each analyzer angle (only doubled angles appear), and angles are
accepted as arbitrary reals without normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import tensor_product
from .montecarlo import CorrelationEstimate, cut_mask, draw_raw32, int_rule, rule_estimate

# Joint outcomes enumerated in a fixed order; samplers and tables rely on it.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def singlet_state() -> np.ndarray:
    """The singlet polarization state (|x y> - |y x>)/sqrt(2).

    Returned in the 4-entry basis order of :func:`chshlab.linalg.tensor_product`:
    exactly (0, 1/sqrt(2), -1/sqrt(2), 0).
    """
    r = 1.0 / math.sqrt(2.0)
    return np.array([0.0, r, -r, 0.0], dtype=complex)


def analyzer_state(theta) -> np.ndarray:
    """Unit vector (cos theta, sin theta) of an analyzer: shape (..., 2) for angles (...)."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)


def analyzer_operator(theta) -> np.ndarray:
    """The +-1 valued polarization observable 2|theta><theta| - I.

    Equals [[cos 2t, sin 2t], [sin 2t, -cos 2t]]: Hermitian, traceless, and
    squaring to the identity, so its eigenvalues are exactly +1 and -1.
    An angle array of shape (...) gives operators of shape (..., 2, 2).
    """
    s = analyzer_state(theta)
    return 2.0 * (s[..., :, None] * s.conj()[..., None, :]) - np.eye(2, dtype=complex)


def commutator(theta: float, theta_prime: float) -> np.ndarray:
    """F(theta) F(theta') - F(theta') F(theta) for two analyzer operators.

    Equals -2 sin(2(theta - theta')) times the antisymmetric matrix
    [[0, 1], [-1, 0]], so it is anti-Hermitian and vanishes whenever the
    angle difference is a multiple of pi/2.
    """
    f, g = analyzer_operator([theta, theta_prime])
    return f @ g - g @ f


def singlet_correlation(alpha: float, beta: float) -> float:
    """Mean of the joint observable A(alpha) x B(beta) in the singlet state.

    Computed by explicit matrix arithmetic; agrees with the closed form
    -cos(2(alpha - beta)) to floating-point accuracy.
    """
    psi = singlet_state()
    op = tensor_product(*analyzer_operator([alpha, beta]))
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
        probs={(k, l): kernels.pair_probability(q, k, l) for (k, l) in OUTCOME_ORDER}
    )


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative laws along the last axis of ``probs`` (..., 4), in OUTCOME_ORDER.

    Their entries are the cuts of the outcome rules. Raises ValueError unless every law
    is finite, nonnegative and within 1e-12 of total 1.
    """
    # On Python floats, law by law: no warning, and cheaper than numpy
    # reductions on a few laws. An inf, a NaN or an overflow reaches the total.
    for law in probs.reshape(-1, 4).tolist():
        total = sum(law)
        if not math.isfinite(total):
            raise ValueError("outcome probabilities must be finite")
        if min(law) < 0.0:
            raise ValueError("outcome probabilities must be nonnegative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to 1")
    return np.cumsum(probs, axis=-1)


def _product_rules(probs: np.ndarray) -> list:
    """The x*y = +1 cut rule (True, [cum[0], cum[2]]) of each law in ``probs`` (..., 4).

    It is X XNOR Y for the rules X and Y of :func:`sample_pairs`, with their
    shared cum[1] cut cancelled: two compares per draw instead of four.
    """
    return [(True, [c0, c2]) for c0, _, c2, _ in _cumulative(probs).reshape(-1, 4).tolist()]


def sample_pairs(
    dist: PairOutcomeDistribution, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling of ``n`` joint outcomes (one uniform per sample).

    Both outcomes are integer cut rules on one :func:`chshlab.montecarlo.draw_raw32`
    array k (u = k 2^-32), on the cumulative law cum over OUTCOME_ORDER:
    x = +1 is (True, [cum[1]]) and y = +1 is (True, [cum[0], cum[1], cum[2]]),
    the inverse CDF's outcome read per coordinate, so each outcome's
    probability is met to within 2^-32. Raises ValueError for n < 1 or a law
    that is non-finite, negative or more than 1e-12 from total 1. Returns
    (x, y) integer arrays with entries in {-1, +1}; the empirical mean of x*y
    converges to :func:`singlet_correlation` at the usual 1/sqrt(n) rate.
    """
    if n < 1:
        raise ValueError("n must be positive")
    c0, c1, c2, _ = _cumulative(dist.as_array()).tolist()
    k = draw_raw32(rng, n)
    return tuple(np.where(cut_mask(*int_rule(True, cuts), k), 1, -1) for cuts in ([c1], [c0, c1, c2]))


def product_estimate(dist: PairOutcomeDistribution, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Monte Carlo mean of x*y over ``n`` sampled pairs, in bounded memory.

    Consumes the same 32-bit halves k, in the same order, as
    :func:`sample_pairs` with the same ``n``, and its mean equals the mean
    of x*y over those samples exactly: x*y = +1 is X XNOR Y, the cut rule
    (True, [cum[0], cum[2]]) of :func:`_product_rules`, and only the count
    of +1 is kept.
    """
    return rule_estimate(n, rng, _product_rules(dist.as_array()))
