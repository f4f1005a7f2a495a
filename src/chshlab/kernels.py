"""Array kernels: every closed-form formula of the package, written once.

Each function works elementwise on floats or on arrays that broadcast
together. The scalar API (``correlation_quad``, ``t0_closed_form``, ...)
and the scans and refinement of :mod:`chshlab.scan` all call these.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# Minimum admissible 1 + q1 q2 q3 q4, sixteen times the conditioning mass; at
# or below it the conditioned table and its expectation are undefined.
DEGENERACY_THRESHOLD = 1e-12

# Pair n's (i, j) into (a1, a2, b1, b2): (a1, b1), (a1, b2), (a2, b1), (a2, b2).
PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))

# The sixteen (k1, l1, k4, l4) cells of the conditioned table, in fixed order.
CELL_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(product((1, -1), repeat=4))
_CELL_SIGNS = np.array(list(zip(*CELL_ORDER)), dtype=float)


def pair_correlation(alpha, beta):
    """Singlet correlation -cos(2(alpha - beta)) of one analyzer pair."""
    return -np.cos(2.0 * (alpha - beta))


def pair_probability(q, k, l):
    """Singlet joint outcome probability (1 + k l q)/4 of outcomes k, l = +-1."""
    return (1.0 + k * l * q) / 4.0


def q_quad(a1, a2, b1, b2):
    """Singlet correlations (q1, q2, q3, q4) of the four analyzer pairs of PAIRS.

    Arrays of one shape (the rows of a descent) take all four pair
    differences in one broadcast. Scalars, for which the block costs more
    calls than it saves, and angles that only broadcast together (the scan
    slab, where a block would hold four times its broadcast shape) go pair
    by pair. Both routes give the same bits.
    """
    angles = (a1, a2, b1, b2)
    shape = getattr(a1, "shape", ())
    if shape and getattr(a2, "shape", ()) == getattr(b1, "shape", ()) == getattr(b2, "shape", ()) == shape:
        x = np.array(angles)
        block = pair_correlation(x[:2, None], x[None, 2:])  # block[i, j - 2] is pair (i, j)
        return tuple(block[i, j - 2] for i, j in PAIRS)
    return tuple(pair_correlation(angles[i], angles[j]) for i, j in PAIRS)


def conditioned_table(q1, q2, q3, q4):
    """Unnormalized conditioned table p1[k1,l1] p2[k4,l1] p3[k1,l4] p4[k4,l4].

    Shape (..., 16) for correlations of shape (...), cells in CELL_ORDER.
    Its sum, taken left to right, is the conditioning mass (1 + q1 q2 q3 q4)/16.
    """
    k1, l1, k4, l4 = _CELL_SIGNS
    q1, q2, q3, q4 = (np.asarray(q)[..., None] for q in (q1, q2, q3, q4))
    p = pair_probability
    return p(q1, k1, l1) * p(q2, k4, l1) * p(q3, k1, l4) * p(q4, k4, l4)


def eight_variable_sum(q1, q2, q3, q4):
    """q1 + q2 + q3 - q4, which is also the singlet mean E of the CHSH observable."""
    return q1 + q2 + q3 - q4


def e4(q1, q2, q3, q4):
    """Closed form of the conditioned four-variable expectation.

    The 1/q_n terms are cleared into triple products, so vanishing
    correlations are regular. NaN where 1 + q1 q2 q3 q4 is at or below
    DEGENERACY_THRESHOLD (or is NaN).
    """
    # q1 q2 and q1 q2 q3 are formed once each. den comes after num, so the
    # res^3 temporaries of a scan slab peak no higher than with every
    # product written out.
    q12 = q1 * q2
    num = (q1 + q2 + q3 - q4) + (q2 * q3 * q4 + q1 * q3 * q4 + q12 * q4 - (q123 := q12 * q3))
    den = 1.0 + q123 * q4
    valid = np.greater(den, DEGENERACY_THRESHOLD)  # not >: float inputs must also give .all()
    if valid.all():
        return num / den
    return np.where(valid, num / np.where(valid, den, 1.0), np.nan)


def t0(a1, a2, b1, b2):
    """Outcome magnitude 2 sqrt(1 - sin(2(a1 - a2)) sin(2(b1 - b2))).

    Evaluated through the exact rewriting
    1 - sin x sin y = sin((x - y)/2)^2 + cos((x + y)/2)^2, a sum of squares
    that keeps full relative accuracy where the naive form cancels to
    rounding noise (near t0 = 0).
    """
    x = 2.0 * (a1 - a2)
    y = 2.0 * (b1 - b2)
    return 2.0 * np.hypot(np.sin((x - y) / 2.0), np.cos((x + y) / 2.0))


def t1(a1, a2, b1, b2):
    """Companion magnitude 2 sqrt(1 + sin(2(a1 - a2)) sin(2(b1 - b2))).

    The mirror of :func:`t0`, so t0^2 + t1^2 = 8, evaluated through
    1 + sin x sin y = cos((x - y)/2)^2 + sin((x + y)/2)^2 for the same
    accuracy near t1 = 0.
    """
    x = 2.0 * (a1 - a2)
    y = 2.0 * (b1 - b2)
    return 2.0 * np.hypot(np.cos((x - y) / 2.0), np.sin((x + y) / 2.0))
