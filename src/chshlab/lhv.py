"""Local-hidden-variable models and the two CHSH experiment protocols.

A hidden-variable model draws a latent value lambda per emitted photon pair
and answers each station's analyzer deterministically from (angle, lambda).
Two protocols are implemented:

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
from typing import Callable, Union

import numpy as np

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

    Pair n gets (alpha, beta) from the fixed assignment
    ((alpha1, beta1), (alpha1, beta2), (alpha2, beta1), (alpha2, beta2)).
    """
    return (
        (config.alpha1, config.beta1),
        (config.alpha1, config.beta2),
        (config.alpha2, config.beta1),
        (config.alpha2, config.beta2),
    )


@dataclass(frozen=True)
class HiddenVariableModel:
    """A latent-variable sampler plus deterministic +-1 response functions.

    ``sample(rng, size)`` draws lambda values (scalar when size is None,
    ndarray otherwise). Draws must be chunk-consistent: sizes c1 then c2
    (or (c1, 4) then (c2, 4)) must give the same values as one draw of
    c1 + c2, because the estimators draw MC_CHUNK trials at a time; numpy's
    ``rng.uniform`` and ``rng.random`` are. ``respond_a(angle, lam)`` and
    ``respond_b`` accept scalar or array lambda and must return only -1 or
    +1, deterministically in (angle, lambda). ``support`` is the lambda interval used by the
    quadrature estimator; only one-dimensional lambdas are supported there.
    """

    name: str
    sample: Callable
    respond_a: Callable
    respond_b: Callable
    support: tuple[float, float]


@dataclass(frozen=True)
class QuantumMimicModel:
    """Marker model whose pair outcomes follow the singlet law directly.

    Deliberately NOT a local-hidden-variable model: there is no shared
    latent variable and no per-station response function, so it is rejected
    by the same-lambda estimator and by the quadrature oracle. It carries no
    sampler of its own: :func:`chsh_independent` routes it to the quantum
    independent-pairs estimator, so it cross-checks that estimator through
    the model interface.
    """

    name: str = "quantum-mimic"


Model = Union[HiddenVariableModel, QuantumMimicModel]


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


def reference_sign_model() -> HiddenVariableModel:
    """The classic sign model: lambda uniform on [0, pi).

    A(alpha, lambda) = sign(cos 2(alpha - lambda)) and B = -A(beta, lambda),
    giving perfect anticorrelation at equal settings and the sawtooth
    correlation -1 + 4 d / pi, where d folds |alpha - beta| into [0, pi/2].
    """
    return HiddenVariableModel(
        name="sign",
        sample=lambda rng, size=None: rng.uniform(0.0, math.pi, size),
        respond_a=_sign_response,
        respond_b=lambda angle, lam: -_sign_response(angle, lam),
        support=(0.0, math.pi),
    )


def get_model(name: str) -> Model:
    """Look up a shipped model by name ('sign' or 'quantum-mimic')."""
    if name == "sign":
        return reference_sign_model()
    if name == "quantum-mimic":
        return QuantumMimicModel()
    raise ValueError(f"unknown model name: {name!r}")


def _require_lhv(model: Model, what: str) -> HiddenVariableModel:
    if not isinstance(model, HiddenVariableModel):
        raise ValueError(f"{what} requires a local-hidden-variable model, got {model.name!r}")
    return model


def _responses(model: HiddenVariableModel, angle: float, lam: np.ndarray, station: str) -> np.ndarray:
    out = np.asarray(model.respond_a(angle, lam) if station == "a" else model.respond_b(angle, lam))
    if not np.all(np.abs(out) == 1):
        raise ValueError(f"model {model.name!r} respond_{station} returned values outside {{-1, +1}}")
    return out


def correlation_mc(
    model: Model, alpha: float, beta: float, n: int, rng: np.random.Generator
) -> CorrelationEstimate:
    """Monte Carlo mean of A(alpha, lambda) B(beta, lambda) over n lambda draws."""
    m = _require_lhv(model, "correlation_mc")

    def draw_chunk(size):
        lam = m.sample(rng, size)
        return _responses(m, alpha, lam, "a") * _responses(m, beta, lam, "b")

    return stream_estimate(n, draw_chunk, (-1, 1))


def correlation_quadrature(
    model: Model, alpha: float, beta: float, grid_points: int = 100_000
) -> float:
    """Deterministic midpoint-rule average of A*B over the lambda support.

    Serves as the analytic oracle for :func:`correlation_mc`. Only models
    with a declared one-dimensional support are accepted; grid_points must
    be at least 1000 to keep the midpoint error well under 1e-3 for the
    piecewise-constant sign responses.
    """
    m = _require_lhv(model, "correlation_quadrature")
    if m.support is None or len(m.support) != 2:
        raise ValueError(f"model {m.name!r} does not declare a one-dimensional lambda support")
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    lo, hi = m.support
    lam = lo + (np.arange(grid_points) + 0.5) * ((hi - lo) / grid_points)
    a = _responses(m, alpha, lam, "a")
    b = _responses(m, beta, lam, "b")
    return float(np.mean(a * b))


def parity_identity(a1: int, a2: int, b1: int, b2: int) -> int:
    """(a1 + a2) b1 + (a1 - a2) b2, which equals +-2 for all sign choices."""
    for v in (a1, a2, b1, b2):
        if v not in (-1, 1):
            raise ValueError(f"inputs must be -1 or +1, got {v!r}")
    return (a1 + a2) * b1 + (a1 - a2) * b2


def chsh_same_lambda(
    model: Model, config: AngleConfig, n: int, rng: np.random.Generator
) -> CorrelationEstimate:
    """Same-lambda protocol: one lambda per trial drives all four responses.

    Every per-trial value of (a1 + a2) b1 + (a1 - a2) b2 is +-2, so the
    returned mean is deterministically inside [-2, 2].
    """
    m = _require_lhv(model, "chsh_same_lambda")

    def draw_chunk(size):
        lam = m.sample(rng, size)
        a1 = _responses(m, config.alpha1, lam, "a")
        a2 = _responses(m, config.alpha2, lam, "a")
        b1 = _responses(m, config.beta1, lam, "b")
        b2 = _responses(m, config.beta2, lam, "b")
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


def chsh_independent(
    model: Model, config: AngleConfig, n: int, rng: np.random.Generator
) -> CorrelationEstimate:
    """Independent-pairs protocol: four fresh lambdas per trial.

    Trial t draws lambda_1..lambda_4 (trial-major stream order) and
    accumulates a1 b1 + a2 b2 + a3 b3 - a4 b4 with the station settings of
    :func:`angle_pairs`. Per-trial values lie in {-4, -2, 0, 2, 4}; the mean
    is deterministically inside [-4, 4]. A QuantumMimicModel is accepted
    here (and only here) and reproduces :func:`quantum_chsh_independent`.
    """
    if isinstance(model, QuantumMimicModel):
        return _quantum_independent(config, n, rng)
    m = _require_lhv(model, "chsh_independent")
    pairs = angle_pairs(config)
    pair_major = _pair_major(n)

    def draw_chunk(size):
        lam = pair_major(m.sample(rng, (size, 4)))
        p = [
            _responses(m, alpha, lam[j], "a") * _responses(m, beta, lam[j], "b")
            for j, (alpha, beta) in enumerate(pairs)
        ]
        return p[0] + p[1] + p[2] - p[3]

    return stream_estimate(n, draw_chunk, _INDEPENDENT_VALUES)


def _quantum_independent(config: AngleConfig, n: int, rng: np.random.Generator) -> CorrelationEstimate:
    cuts = [_product_cuts(joint_distribution(alpha, beta)) for alpha, beta in angle_pairs(config)]
    pair_major = _pair_major(n)

    def draw_chunk(size):
        # One uniform per pair, trial-major: draw [t, j] drives pair j+1 of
        # trial t, so after the copy u[j] holds pair j+1's uniforms.
        u = pair_major(rng.random((size, 4)))
        plus = [_product_is_plus(u[j], cuts[j]).view(np.int8) for j in range(4)]
        return (plus[0] + plus[1] + plus[2] - plus[3]) * np.int8(2) - np.int8(2)

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
    return _quantum_independent(config, n, rng)
