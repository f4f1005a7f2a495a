"""Constrained reduction of four independent singlet pairs to four variables.

Start from the product distribution of four independent pair outcomes
(X_n, Y_n), n = 1..4, measured at the analyzer settings of
:func:`chshlab.lhv.angle_pairs`. Impose the outcome-identification
constraints

    X3 = X1,  X2 = X4,  Y2 = Y1,  Y3 = Y4

by conditioning. Only the four variables X1, Y1, X4, Y4 survive; writing
their values as (k1, l1, k4, l4), the conditioned table is

    P(k1, l1, k4, l4)  proportional to  p(1; k1, l1) p(2; k4, l1)
                                        p(3; k1, l4) p(4; k4, l4),

where p(n; k, l) = (1 + k l q_n) / 4 and q_n is the singlet correlation of
pair n. Note how the constraints place pair 2 on (k4, l1) and pair 3 on
(k1, l4). The conditioning mass (the normalizer) works out to
(1 + q1 q2 q3 q4) / 16, which for angle-derived q never drops below 3/64,
so conditioning can only degenerate for hand-picked q vectors.

The headline quantity is E[X1 Y1 + X1 Y4 + X4 Y1 - X4 Y4] under P. Since
the summand equals (k1 + k4) l1 + (k1 - k4) l4 = +-2 pointwise, this
expectation can never leave [-2, 2], whatever the q vector. Its closed form

    [ q1 + q2 + q3 - q4
      + (q2 q3 q4 + q1 q3 q4 + q1 q2 q4 - q1 q2 q3) ] / (1 + q1 q2 q3 q4)

is implemented with triple products rather than 1/q_n terms, so q_n = 0 is
perfectly regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import kernels
from .lhv import AngleConfig

# The sixteen (k1, l1, k4, l4) cells in fixed enumeration order.
CELL_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(product((1, -1), repeat=4))


class DegenerateConditioningError(ValueError):
    """The conditioning event has (numerically) zero probability."""


@dataclass(frozen=True)
class CorrelationQuad:
    """Singlet correlations q_n = -cos(2(alpha_n - beta_n)) of the four pairs."""

    q1: float
    q2: float
    q3: float
    q4: float

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.q1, self.q2, self.q3, self.q4)


def correlation_quad(config: AngleConfig) -> CorrelationQuad:
    """The four pair correlations for a given analyzer configuration."""
    return CorrelationQuad(*(float(q) for q in kernels.q_quad(*config.astuple())))


@dataclass(frozen=True)
class ConstrainedDistribution:
    """The 16-cell conditioned table P over (k1, l1, k4, l4).

    ``normalizer`` is the conditioning mass (the sum of the sixteen
    unnormalized products) before division; probabilities sum to one. The
    means of X1, Y1, X4 and Y4 are exactly zero: no monomial of the expanded
    product has an odd power of a single sign.
    """

    probs: dict[tuple[int, int, int, int], float]
    normalizer: float

    def probability(self, k1: int, l1: int, k4: int, l4: int) -> float:
        return self.probs[(k1, l1, k4, l4)]


def build_constrained_from_quad(quad: CorrelationQuad) -> ConstrainedDistribution:
    """Build the conditioned table directly from a correlation quad.

    Provided for tests and for the CLI's explicit-q mode: not every q in
    [-1, 1]^4 is realizable by angles (the four angle differences obey one
    linear relation), and only non-realizable quads can make the
    conditioning mass vanish.
    """
    q1, q2, q3, q4 = quad.astuple()
    for q in quad.astuple():
        if abs(q) > 1.0 + 1e-12:
            raise ValueError(f"correlations must lie in [-1, 1], got {q}")

    def p(q: float, k: int, l: int) -> float:
        return (1.0 + k * l * q) / 4.0

    raw = {
        (k1, l1, k4, l4): p(q1, k1, l1) * p(q2, k4, l1) * p(q3, k1, l4) * p(q4, k4, l4)
        for (k1, l1, k4, l4) in CELL_ORDER
    }
    mass = sum(raw.values())
    if mass <= kernels.DEGENERACY_THRESHOLD:
        raise DegenerateConditioningError("constraint event has zero probability")
    return ConstrainedDistribution(
        probs={cell: w / mass for cell, w in raw.items()},
        normalizer=mass,
    )


def build_constrained(config: AngleConfig) -> ConstrainedDistribution:
    """Build the conditioned table for an analyzer configuration."""
    return build_constrained_from_quad(correlation_quad(config))


def constrained_expectation_bruteforce(dist: ConstrainedDistribution) -> float:
    """E[X1 Y1 + X1 Y4 + X4 Y1 - X4 Y4] by summation over the 16 cells.

    This is the independent oracle for :func:`constrained_expectation_closed`.
    """
    return sum(
        (k1 * l1 + k1 * l4 + k4 * l1 - k4 * l4) * p
        for (k1, l1, k4, l4), p in dist.probs.items()
    )


def constrained_expectation_closed(quad: CorrelationQuad) -> float:
    """Closed form of the conditioned four-variable expectation.

    The 1/q_n terms of the textbook way of writing this ratio are cleared
    into triple products, so vanishing correlations are not singular; only
    a vanishing denominator 1 + q1 q2 q3 q4 is rejected.
    """
    value = float(kernels.e4(*quad.astuple()))
    if math.isnan(value):
        raise DegenerateConditioningError("constraint event has zero probability")
    return value


def quantum_eight_variable_sum(quad: CorrelationQuad) -> float:
    """q1 + q2 + q3 - q4: the unconstrained independent-pairs expectation.

    Its extrema over all analyzer configurations are -+2 sqrt(2).
    """
    return float(kernels.eight_variable_sum(*quad.astuple()))
