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

Every estimator is one :func:`chshlab.montecarlo.rule_estimate` call on
cut rules in u, lambda = pi u, one per lambda a trial draws (the protocols
differ only in that count, one or four); the value tuples below are the
only place the values are written. Each response is a cut rule whose cuts
are the draws at which the cosine rule flips, found once per run from one
grid shared by all angles (:func:`_rules`); each pair product or
same-lambda value is one cut rule read off those (:func:`_combined`), equal
to the rule for every draw without a cosine per draw. Every angle must be
finite with magnitude at most MAX_ANGLE; any other raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .montecarlo import DRAW_STEP, CorrelationEstimate, cut_mask, rule_estimate
from .quantum import OUTCOME_ORDER, _product_rules

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


# Largest |angle| the sign model accepts. Rounding moves a flip by at most
# 1.3e-10 from its analytic endpoint there.
MAX_ANGLE = 1e6
_FLIP_SPLIT = np.arange(129) / 128.0
# The draws j 2^25 (lambda = j pi / 128) for j < 128, then the last draw.
_FLIP_GRID = np.minimum(_FLIP_SPLIT * 2.0**32, 2.0**32 - 1)


def _cos_rule(angle, lam) -> np.ndarray:
    """A's response rule as a mask: cos 2(angle - lam) >= 0.

    The sign(0) := +1 convention of ">=" never applies, so ">" gives the
    same masks: the argument is a double, no double is an odd multiple of
    pi/2, and the nearest any double comes to a multiple of pi/2 (about
    4.7e-19, the worst case of argument reduction) keeps |cos| far above 0.
    """
    return np.cos(2.0 * (np.asarray(angle) - lam)) >= 0.0


def _rules(angles) -> list:
    """A's cosine rule per angle, with its flips on the draw grid lam = pi (k DRAW_STEP).

    Raises ValueError unless each angle is finite with |angle| <= MAX_ANGLE.
    Returns, per angle, the cut rule (r0, flips) of the rule on every draw
    k in [0, 2^32): its value at k = 0 and the sorted u = k DRAW_STEP in
    (0, 1) of the draws k at which it changes. lam is the one the sign-model
    estimators read, bit for bit. The first pass evaluates the rule on the
    draws of _FLIP_GRID, which all angles share; a gap across which the rule
    changes is split 128-fold (exactly: a gap spans at most 2^25 draws) per
    pass until the change lies between adjacent draws, so a call makes at
    most 5 passes, each one rule call for all angles. No flip is missed,
    because no grid gap holds two flips. lam never decreases in k, and the
    rule's argument is monotone in lam, so the flips lie within 1.3e-10 of
    the analytic endpoints (angle -+ pi/4) mod pi. Those are pi/2 apart mod
    pi, so flips of different endpoints are too far apart to share a pi/128
    gap. Only an endpoint within rounding of 0 or pi can flip both just
    above 0 and just below pi, and the grid's first and last gaps keep those
    two flips apart.
    """
    angles = [float(a) for a in angles]
    if not all(abs(a) <= MAX_ANGLE for a in angles):
        raise ValueError(f"angles must be finite with |angle| <= {MAX_ANGLE:g}, got {angles}")
    rule_angles = np.array(angles)[:, None]
    grid = np.broadcast_to(_FLIP_GRID, (len(angles), _FLIP_GRID.size))
    rule = _cos_rule(rule_angles, math.pi * (_FLIP_GRID * DRAW_STEP))
    r0 = rule[:, 0].tolist()
    owner = np.arange(len(angles))
    flips = [[] for _ in angles]
    while True:
        rows, cols = np.nonzero(rule[:, 1:] != rule[:, :-1])
        lo, hi = grid[rows, cols], grid[rows, cols + 1]
        pinned = hi - lo == 1
        for k, flip in zip(owner[rows[pinned]].tolist(), (hi[pinned] * DRAW_STEP).tolist()):
            flips[k].append(flip)
        if pinned.all():
            return [(r0[k], sorted(t)) for k, t in enumerate(flips)]
        rows, lo, span = rows[~pinned], lo[~pinned, None], (hi - lo)[~pinned, None]
        owner, rule_angles = owner[rows], rule_angles[rows]
        grid = lo + np.floor(span * _FLIP_SPLIT)
        rule = _cos_rule(rule_angles, math.pi * (grid * DRAW_STEP))


def _combined(rules, f) -> list:
    """The cut rule of each row (one mask or a list of them) of f(response masks).

    Every response, so every row, is constant from 0 or a flip up to the next
    flip: f is read there, and a row's rule is exact on every draw.
    """
    points = np.array([0.0, *sorted({t for _, flips in rules for t in flips})])
    rows = np.atleast_2d(f(*(cut_mask(*rule, points) for rule in rules)))
    return [(bool(row[0]), points[1:][row[1:] != row[:-1]].tolist()) for row in rows]


def correlation_mc(alpha: float, beta: float, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Monte Carlo mean of A(alpha, lambda) B(beta, lambda) over n draws lambda ~ U[0, pi)."""
    # A(alpha) B(beta) = +1 exactly where A(alpha) != A(beta), since B = -A.
    return rule_estimate(n, rng, _combined(_rules([alpha, beta]), np.not_equal))


def chsh_same_lambda(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Same-lambda protocol: one lambda per trial drives all four responses.

    Every per-trial value of (a1 + a2) b1 + (a1 - a2) b2 is +-2, so the
    returned mean is deterministically inside [-2, 2]: it is 2 a1 b1 where
    a1 = a2 and 2 a1 b2 elsewhere, so +2 exactly where A(alpha1) differs from
    A(beta1), respectively A(beta2).
    """
    rules = _combined(_rules(config.astuple()), lambda a1, a2, b1, b2: a1 != np.where(a1 == a2, b1, b2))
    return rule_estimate(n, rng, rules, _SAME_LAMBDA_VALUES)


def chsh_independent(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Independent-pairs protocol: four fresh lambdas per trial.

    Trial t draws lambda_1..lambda_4 (laid out as in ``rule_estimate``) and
    accumulates a1 b1 + a2 b2 + a3 b3 - a4 b4 with the station settings of
    :func:`angle_pairs`. Per-trial values lie in {-4, -2, 0, 2, 4}; the mean
    is deterministically inside [-4, 4]. Its index counts the four pair
    rules that hold, the fourth negated. The same protocol with the four
    pairs drawn from the singlet law is :func:`quantum_chsh_independent`.
    """
    # a_j b_j = +1 (m_j) where A(alpha) != A(beta), as in correlation_mc; the
    # index m1 + m2 + m3 - m4 + 1 is m1 + m2 + m3 + (1 - m4), so a2 == b2 last.
    rules = _combined(_rules(config.astuple()), lambda a1, a2, b1, b2: [a1 != b1, a1 != b2, a2 != b1, a2 == b2])
    return rule_estimate(n, rng, rules, _INDEPENDENT_VALUES)


def quantum_chsh_independent(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Quantum independent-pairs run: four singlet pairs sampled per trial.

    The mean converges to q1 + q2 + q3 - q4, the signed sum of the four
    singlet correlations, whose magnitude never exceeds 2 sqrt(2). One
    :func:`chshlab.kernels.q_quad` call gives the four pair laws
    (1 + k l q)/4, one row each; each pair is its x*y = +1 cut rule, the last
    negated as in :func:`chsh_independent`, whose draw layout it shares.
    """
    q = np.array(kernels.q_quad(*config.astuple()))
    k, l = np.array(OUTCOME_ORDER).T
    *rules, (r0, cuts) = _product_rules(kernels.pair_probability(q[:, None], k, l))
    return rule_estimate(n, rng, [*rules, (not r0, cuts)], _INDEPENDENT_VALUES)
