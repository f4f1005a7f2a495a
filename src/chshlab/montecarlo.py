"""Streaming Monte Carlo: fixed-size chunks and exact count-based estimates.

Every per-trial value of the package's estimators takes one of a few
values (+-1, +-2, {-4, ..., 4}, or +-t0), written once per estimator as a
tuple, so a run reduces to a histogram: a chunk's draws give per trial
the index of its value in that tuple, and only counts of indices are kept.
Estimators draw MC_CHUNK trials at a time in the same trial-major order
as one whole-run call, which keeps the draws identical to that call and
memory O(MC_CHUNK) whatever the number of trials. Mean and variance then
follow from Python-int counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Trials drawn and reduced per chunk.
MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate: sample mean, stderr = sample std / sqrt(n)."""

    mean: float
    stderr: float
    n_samples: int


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

    ``draw_chunk(size)`` draws the next ``size`` trials and returns, per
    trial, the index of its value in ``values``: a bool mask for two
    values, int8 otherwise. Only the count of each index is kept.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    counts = [0] * len(values)
    for start in range(0, n, MC_CHUNK):
        x = draw_chunk(min(MC_CHUNK, n - start)).view(np.int8)
        counts = [c + int(np.count_nonzero(x == i)) for i, c in enumerate(counts)]
    if sum(counts) != n:
        raise ValueError(f"per-trial values outside {tuple(values)}")
    return estimate_from_counts(values, counts, scale)
