"""Streaming Monte Carlo: one driver, fixed-size chunks, exact count-based estimates.

Every estimator of the package is one :func:`rule_estimate` call. A trial
draws one uniform per cut rule (r0, cuts), a step function of its draw,
and takes values[h], where h counts the rules that hold. The values (+-1,
+-2, {-4, ..., 4}, or +-t0) are written once per estimator as a tuple, and
only the counts of each h are kept. Trials are drawn MC_CHUNK at a time in
the same trial-major order as one whole-run call, which keeps the draws
identical to that call and memory O(MC_CHUNK) whatever the number of
trials. Mean and variance then follow from Python-int counts.

Every Monte Carlo uniform comes from :func:`draw_uniforms`, 32 bits at a
time: u = k 2^-32, where k runs through the low, then the high 32-bit half
of each 64-bit output of the generator's bit generator. Each outcome law is
thus met to within 2^-32 (about 2.3e-10), far below any standard error a
run can reach, and one 64-bit output serves two outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Trials drawn and reduced per chunk. Even, so that a chunked run draws
# whole 64-bit outputs until its last chunk, as one whole-run call does.
MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate: sample mean, stderr = sample std / sqrt(n)."""

    mean: float
    stderr: float
    n_samples: int


def draw_uniforms(rng: np.random.Generator, shape, scale: float = 1.0, out=None) -> np.ndarray:
    """The next uniforms of ``rng`` in [0, scale), as an array of ``shape``.

    Entry i (in C order) is (scale 2^-32) k_i, where k_0, k_1, ... are the
    low, then the high 32-bit half of each ``rng.bit_generator.random_raw``
    output in turn. A count of entries c takes ceil(c / 2) outputs; an odd c
    drops the last high half. Scaling by a power of two is exact, so the
    result equals scale * (k 2^-32) bit for bit. ``out`` (any array of
    ``shape``, such as a transposed view) receives the result in one pass.
    Raises ValueError for MT19937, whose raw outputs hold only 32 bits.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("draw_uniforms needs 64-bit raw outputs; MT19937 gives 32")
    count = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = rng.bit_generator.random_raw((count + 1) // 2)
    # As little-endian bytes, each 64-bit output is its low half, then its high half.
    k = raw.astype("<u8", copy=False).view("<u4")[:count].reshape(shape)
    return np.multiply(k, scale * 2.0**-32, out=out)


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


def cut_mask(r0: bool, cuts: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """The bool mask u -> r0 XOR (an odd number of the sorted ``cuts`` <= u).

    One comparison per cut, each after the first applied in place. Without
    cuts the mask is r0 everywhere, as a bool array of u's shape.
    """
    if not cuts:
        return lambda u: np.full(np.shape(u), r0)
    first, *rest = cuts

    def mask(u):
        out = u < first if r0 else u >= first
        for t in rest:
            out ^= u >= t
        return out

    return mask


def rule_estimate(
    n: int, rng: np.random.Generator, rules, values: Sequence[int] = (-1, 1), span: float = 1.0, scale: float = 1.0
) -> CorrelationEstimate:
    """Estimate from n trials of the cut ``rules``, one uniform in [0, span) per rule.

    Rule j of trial t reads entry d t + j, d = len(rules), of one trial-major
    :func:`draw_uniforms` stream. The trial's value is values[h], h the number
    of rules whose :func:`cut_mask` holds: one rule's bool mask, or their int8
    sum. Only the count of each h is kept; a mask is counted once, its false
    entries being the rest of the chunk. Raises ValueError before any draw
    for an empty ``rules`` and unless there is one value per h in 0..d.
    """
    d = len(rules)
    if not d:
        raise ValueError("rules is empty: a trial needs at least one cut rule")
    if len(values) != d + 1:
        raise ValueError(f"{d} rules give value indices 0..{d}, outside or short of {tuple(values)}")
    masks = [cut_mask(*rule) for rule in rules]
    # Each chunk's trial-major (size, d) draws go into one reused (d, size)
    # buffer: contiguous per rule, allocated once. estimate_from_counts rejects n < 2.
    buf = np.empty((d, max(0, min(n, MC_CHUNK))))
    counts = [0] * len(values)
    for start in range(0, n, MC_CHUNK):
        size = min(MC_CHUNK, n - start)
        u = buf[:, :size]
        draw_uniforms(rng, (size, d), span, out=u.T)
        first, *rest = [mask(row) for mask, row in zip(masks, u)]
        if rest:
            h = first.view(np.int8)
            for m in rest:
                h += m.view(np.int8)
            counts = [c + int(np.count_nonzero(h == i)) for i, c in enumerate(counts)]
        else:
            ones = int(np.count_nonzero(first))
            counts[0] += size - ones
            counts[1] += ones
    return estimate_from_counts(values, counts, scale)
