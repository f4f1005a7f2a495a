"""Streaming Monte Carlo: fixed-size chunks and exact count-based estimates.

Every per-trial value of the package's estimators takes one of a few
values (+-1, +-2, {-4, ..., 4}, or +-t0), so a run reduces to a
histogram. Estimators draw MC_CHUNK trials at a time in the same
trial-major order as one whole-run call, which keeps the draws identical
to that call and memory O(MC_CHUNK) whatever the number of trials. Mean
and variance then follow from Python-int counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# Trials drawn and reduced per chunk.
MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate: sample mean, stderr = sample std / sqrt(n)."""

    mean: float
    stderr: float
    n_samples: int


def chunk_sizes(n: int) -> Iterator[int]:
    """Sizes of the consecutive chunks, at most MC_CHUNK each, covering n trials."""
    full, rest = divmod(n, MC_CHUNK)
    for _ in range(full):
        yield MC_CHUNK
    if rest:
        yield rest


def signs(mask: np.ndarray) -> np.ndarray:
    """+1 where ``mask`` is true and -1 elsewhere, as int8."""
    return mask.view(np.int8) * np.int8(2) - np.int8(1)


def independent_values(plus: Sequence[np.ndarray]) -> np.ndarray:
    """Per-trial p1 + p2 + p3 - p4 of four pair products, as int8.

    Pair product j is +1 where ``plus[j]`` is true and -1 elsewhere, so the
    sum is 2 (plus[0] + plus[1] + plus[2] - plus[3]) - 2.
    """
    p = [mask.view(np.int8) for mask in plus]
    return (p[0] + p[1] + p[2] - p[3]) * np.int8(2) - np.int8(2)


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


def stream_estimate(
    n: int, draw_chunk: Callable[[int], np.ndarray], values: Sequence[int], scale: float = 1.0
) -> CorrelationEstimate:
    """Estimate from n trials whose per-trial values come MC_CHUNK at a time.

    ``draw_chunk(size)`` draws the next ``size`` trials and returns their
    per-trial values, each one of ``values``; only the counts of each
    value are kept.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    counts = [0] * len(values)
    for size in chunk_sizes(n):
        x = draw_chunk(size)
        counts = [c + int(np.count_nonzero(x == v)) for c, v in zip(counts, values)]
    if sum(counts) != n:
        raise ValueError(f"per-trial values outside {tuple(values)}")
    return estimate_from_counts(values, counts, scale)
