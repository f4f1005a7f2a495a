"""Streaming Monte Carlo: one driver, fixed-size chunks, exact count-based estimates.

Every estimator of the package is one :func:`rule_estimate` call. A trial
draws one uniform per cut rule (r0, cuts), a step function of its draw,
and takes values[h], where h counts the rules that hold. The values (+-1,
+-2, {-4, ..., 4}, or +-t0) are written once per estimator as a tuple, and
only the number of trials with h > i is kept, for each i. Trials are drawn
in blocks of MC_CHUNK, each block's draws rule-major: a block is read as
one contiguous row of draws per rule, and memory stays O(MC_CHUNK)
whatever the number of trials. Mean and variance then follow from
Python-int counts.

Every draw is a 32-bit half k of :func:`draw_raw32`. It stands for the uniform
u = k DRAW_STEP in [0, 1), DRAW_STEP = 2^-32, so each outcome law is met to within
2^-32 (about 2.3e-10), far below any standard error a run can reach. u is never
formed: once per run each cut becomes an integer threshold on k (:func:`int_rule`),
and the rules compare k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Trials per chunk, and per block of rule_estimate's rule-major draw layout:
# changing it moves every multi-rule estimate. Even, so that a chunked run
# draws whole 64-bit outputs until its last chunk.
MC_CHUNK = 1 << 15
# The draw grid: draw k stands for u = k DRAW_STEP, exactly.
DRAW_STEP = 2.0**-32


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate: sample mean, stderr = sample std / sqrt(n)."""

    mean: float
    stderr: float
    n_samples: int


def draw_raw32(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` 32-bit halves of ``rng``'s raw outputs, as a flat uint32 array.

    The low, then the high half of each ``rng.bit_generator.random_raw``
    output in turn; an odd count drops the last high half, so one 64-bit
    output serves two draws. Raises ValueError for MT19937, whose raw outputs hold 32 bits.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("draw_raw32 needs 64-bit raw outputs; MT19937 gives 32")
    raw = rng.bit_generator.random_raw((count + 1) // 2)
    # As little-endian bytes, each 64-bit output is its low half, then its high half.
    return raw.astype("<u8", copy=False).view("<u4")[:count]


def int_rule(r0: bool, cuts: Sequence[float]) -> tuple:
    """The cut rule (r0, cuts) on u = k DRAW_STEP, as a rule on the raw half k.

    u >= t holds exactly where k >= ceil(t / DRAW_STEP): both scalings by 2^32
    are exact. The threshold is clipped to [0, 2^32], NaN and +inf to 2^32. A
    threshold 0 toggles r0 and one of 2^32 never holds: both are dropped.
    """
    ks = [math.ceil(max(0.0, min(2.0**32, t / DRAW_STEP))) for t in cuts]
    return r0 ^ (ks.count(0) % 2 == 1), [k for k in ks if 0 < k < 1 << 32]


def estimate_from_counts(
    values: Sequence[int], counts: Sequence[int], scale: float = 1.0
) -> CorrelationEstimate:
    """Mean and stderr of a sample holding counts[i] copies of scale * values[i].

    Sums run over Python ints, so they are exact for any sample size: the
    mean is scale times the correctly rounded sum / n (for scale 1 that is
    bit-identical to ``np.mean`` of the dense integer-valued sample) and
    the unbiased variance is rounded once before its square root.
    """
    n = sum(counts)
    if n < 2:
        raise ValueError("need at least 2 samples")
    total = sum(v * c for v, c in zip(values, counts))
    squares = sum(v * v * c for v, c in zip(values, counts))
    variance = (n * squares - total * total) / (n * (n - 1))
    return CorrelationEstimate(
        mean=scale * (total / n),
        stderr=scale * math.sqrt(variance) / math.sqrt(n),
        n_samples=n,
    )


def cut_mask(r0: bool, cuts: Sequence[float], u) -> np.ndarray:
    """The bool mask r0 XOR (an odd number of the sorted ``cuts`` <= u), of u's shape.

    One comparison per cut, each after the first applied in place. Without
    cuts the mask is r0 everywhere.
    """
    if not cuts:
        return np.full(np.shape(u), r0)
    out = u < cuts[0] if r0 else u >= cuts[0]
    for t in cuts[1:]:
        out ^= u >= t
    return out


def rule_estimate(
    n: int, rng: np.random.Generator, rules, values: Sequence[int] = (-1, 1), scale: float = 1.0
) -> CorrelationEstimate:
    """Estimate from n trials of the cut ``rules``, one uniform in [0, 1) per rule.

    The run reads one :func:`draw_raw32` stream of d n draws, d = len(rules),
    rule-major in blocks of MC_CHUNK trials: in the block of b trials from
    trial s, rule j of trial t reads entry d s + j b + (t - s), so a chunk is
    a (d, b) view. A trial's value is values[h], h the number of rules whose
    :func:`cut_mask` holds: h starts as the first rule's mask, and each further
    mask is added to it as int8; only above[i], the number of trials with
    h > i, is kept, and the count of each h is their difference. Raises
    ValueError before any draw for an empty ``rules`` and unless there is
    one value per h in 0..d.
    """
    d = len(rules)
    if not d:
        raise ValueError("rules is empty: a trial needs at least one cut rule")
    if len(values) != d + 1:
        raise ValueError(f"{d} rules give value indices 0..{d}, outside or short of {tuple(values)}")
    first, *rest = [int_rule(*rule) for rule in rules]
    above = [0] * d
    for start in range(0, n, MC_CHUNK):
        size = min(MC_CHUNK, n - start)
        k = draw_raw32(rng, size * d).reshape(d, size)
        h = cut_mask(*first, k[0])
        for rule, row in zip(rest, k[1:]):
            h = h.view(np.int8)
            h += cut_mask(*rule, row).view(np.int8)
        above = [a + int(np.count_nonzero(h > i if i else h)) for i, a in enumerate(above)]
    counts = [a - b for a, b in zip([n, *above], [*above, 0])]
    return estimate_from_counts(values, counts, scale)
