"""Independent test oracles.

Nothing in this module imports the package under test: eigenvalues come
from closed-form characteristic polynomials (quadratic formula, Ferrari's
quartic), the constrained expectation from a literal enumeration of the
full eight-variable product distribution, the sign-model correlation
from its analytic sawtooth, and the Monte Carlo uniforms from the raw
outputs of the bit generator.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def charpoly_coefficients(m: np.ndarray) -> list[float]:
    """Coefficients [1, c3, c2, c1, c0] of det(tI - M) via Faddeev-LeVerrier."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -np.trace(mk).real / k
        coeffs.append(ck)
        mk = mk + ck * np.eye(n)
    return coeffs


def _real_cubic_roots(b: float, c: float, d: float) -> list[float]:
    # Real roots of z^3 + b z^2 + c z + d (Cardano / trigonometric form).
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        u = -q / 2.0 + math.sqrt(disc)
        v = -q / 2.0 - math.sqrt(disc)
        t = math.copysign(abs(u) ** (1.0 / 3.0), u) + math.copysign(abs(v) ** (1.0 / 3.0), v)
        return [t - b / 3.0]
    r = math.sqrt(max(0.0, -(p**3) / 27.0))
    if r == 0.0:
        return [-b / 3.0]
    phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * r))))
    scale = 2.0 * math.sqrt(-p / 3.0)
    return [scale * math.cos((phi + 2.0 * math.pi * k) / 3.0) - b / 3.0 for k in range(3)]


def _quartic_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    # All-real-root quartic t^4 + c3 t^3 + c2 t^2 + c1 t + c0 (Ferrari).
    a = c3
    p = c2 - 3.0 * a * a / 8.0
    q = c1 - a * c2 / 2.0 + a**3 / 8.0
    r = c0 - a * c1 / 4.0 + a * a * c2 / 16.0 - 3.0 * a**4 / 256.0
    shift = -a / 4.0
    if abs(q) < 1e-12:
        disc = max(0.0, p * p - 4.0 * r)
        s = math.sqrt(disc)
        roots = []
        for y2 in ((-p + s) / 2.0, (-p - s) / 2.0):
            y = math.sqrt(max(0.0, y2))
            roots += [y, -y]
        return sorted(root + shift for root in roots)
    resolvent = _real_cubic_roots(p, p * p / 4.0 - r, -q * q / 8.0)
    m = max(resolvent)
    if m <= 0.0:
        raise ValueError("Ferrari resolvent has no positive root")
    s2m = math.sqrt(2.0 * m)
    roots = []
    for sign in (1.0, -1.0):
        bq = sign * s2m
        cq = p / 2.0 + m - sign * q / (2.0 * s2m)
        disc = max(0.0, bq * bq - 4.0 * cq)
        sd = math.sqrt(disc)
        roots += [(-bq + sd) / 2.0, (-bq - sd) / 2.0]
    return sorted(root + shift for root in roots)


def charpoly_eigenvalues(m: np.ndarray) -> list[float]:
    """Eigenvalues of a 2x2 or 4x4 Hermitian matrix in ascending order,
    computed from the characteristic polynomial in closed form."""
    m = np.asarray(m, dtype=complex)
    if m.shape == (2, 2):
        tr = np.trace(m).real
        det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        d = math.sqrt(max(0.0, tr * tr - 4.0 * det))
        return [(tr - d) / 2.0, (tr + d) / 2.0]
    if m.shape == (4, 4):
        _, c3, c2, c1, c0 = charpoly_coefficients(m)
        return _quartic_real_roots(c3, c2, c1, c0)
    raise ValueError(f"unsupported shape {m.shape}")


def chsh_square(comm_a: np.ndarray, comm_b: np.ndarray) -> np.ndarray:
    """Right side 4I - [A1, A2] x [B1, B2] of Landau's identity for T^2.

    Takes the two 2x2 analyzer commutators; the Kronecker product puts the
    first factor on the slow index, the package's 4x4 basis order.
    """
    return 4.0 * np.eye(4) - np.kron(comm_a, comm_b)


def chsh_matrices(angles: np.ndarray) -> np.ndarray:
    """CHSH observables for an (n, 4) array of (a1, a2, b1, b2) rows, shape (n, 4, 4).

    Written from the definition T = A1 x B1 + A1 x B2 + A2 x B1 - A2 x B2
    with A(t) = 2|t><t| - I and |t> = (cos t, sin t), all n at once.
    """
    s = np.stack([np.cos(angles), np.sin(angles)], axis=-1).astype(complex)
    f = 2.0 * (s[..., :, None] * s.conj()[..., None, :]) - np.eye(2)
    a1, a2, b1, b2 = (f[:, j] for j in range(4))

    def kron(a, b):
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 4, 4)

    return kron(a1, b1) + kron(a1, b2) + kron(a2, b1) - kron(a2, b2)


def conditioned_expectation_eight_variable(q: tuple[float, float, float, float]) -> tuple[float, float]:
    """(expectation, conditioning mass) by enumerating the full product law.

    Enumerates all 2^8 outcomes of four independent pairs with per-pair law
    p(n; k, l) = (1 + k l q_n)/4, keeps the outcomes satisfying
    x3 = x1, x2 = x4, y2 = y1, y3 = y4, and averages
    x1 y1 + x1 y4 + x4 y1 - x4 y4 over the conditioned law.
    """
    q1, q2, q3, q4 = q

    def p(qn: float, k: int, l: int) -> float:
        return (1.0 + k * l * qn) / 4.0

    num = 0.0
    mass = 0.0
    for x1, y1, x2, y2, x3, y3, x4, y4 in product((-1, 1), repeat=8):
        if x3 != x1 or x2 != x4 or y2 != y1 or y3 != y4:
            continue
        w = p(q1, x1, y1) * p(q2, x2, y2) * p(q3, x3, y3) * p(q4, x4, y4)
        mass += w
        num += w * (x1 * y1 + x1 * y4 + x4 * y1 - x4 * y4)
    if mass <= 0.0:
        raise ZeroDivisionError("conditioning mass is zero")
    return num / mass, mass


def sign_model_sawtooth(alpha: float, beta: float) -> float:
    """Analytic correlation of the uniform sign model: -1 + 4 d / pi,
    where d folds |alpha - beta| into [0, pi/2]."""
    d = abs(alpha - beta) % math.pi
    d = min(d, math.pi - d)
    return -1.0 + 4.0 * d / math.pi


def e4_expression(q1, q2, q3, q4, threshold: float):
    """The conditioned four-variable expectation, each product written out.

    Elementwise on arrays; NaN where 1 + q1 q2 q3 q4 is at or below
    ``threshold`` (or is NaN).
    """
    den = 1.0 + q1 * q2 * q3 * q4
    num = (q1 + q2 + q3 - q4) + (q2 * q3 * q4 + q1 * q3 * q4 + q1 * q2 * q4 - q1 * q2 * q3)
    valid = den > threshold
    return np.where(valid, num / np.where(valid, den, 1.0), np.nan)


def stable_extremes(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k smallest and k largest non-NaN values by a full sort.

    The stable argsort puts NaNs last and keeps ties in index order; both
    index lists ascend by value.
    """
    order = np.argsort(values, kind="stable")[: np.count_nonzero(~np.isnan(values))]
    return order[:k], order[max(0, order.size - k) :]


def running_extremes(slab_rows, slab_values, rows, values, violates, resolution: int):
    """Extrema and violations of the slab rows followed by the refined rows.

    A running max/min over the (row, value) pairs in that order: a value
    replaces the extremum only if strictly beyond it, so among equal values
    the first wins. NaN never wins and never violates. Returns the max pair,
    the min pair, the violating (row, value) pairs in order and their count
    with each slab violation counted resolution times; rows are tuples.
    """
    found = [
        (v, tuple(row), weight)
        for weight, rs, vs in ((resolution, slab_rows, slab_values), (1, rows, values))
        for row, v in zip(rs.tolist(), vs.tolist())
        if not math.isnan(v)
    ]
    best = max(found, key=lambda p: p[0])[:2]
    worst = min(found, key=lambda p: p[0])[:2]
    bad = [(row, v, weight) for v, row, weight in found if violates(v)]
    return best, worst, [(row, v) for row, v, _ in bad], sum(weight for *_, weight in bad)


def random_angle_tuple(rng: np.random.Generator) -> tuple[float, float, float, float]:
    return tuple(float(v) for v in rng.uniform(0.0, math.pi, 4))


def lattice_objective_values(name: str, resolution: int) -> list[float]:
    """A scan objective at every point of the full resolution^4 angle lattice.

    A plain loop over all (alpha1, alpha2, beta1, beta2) lattice points,
    each evaluated with scalar math-module formulas: the conditioned
    expectation (NaN where 1 + q1 q2 q3 q4 <= 1e-12), the eight-variable sum
    q1 + q2 + q3 - q4, or the validity margin t0 - |E|.
    """
    ax = [(i / resolution) * math.pi for i in range(resolution)]
    q = [[-math.cos(2.0 * (a - b)) for b in ax] for a in ax]
    values = []
    for i1, a1 in enumerate(ax):
        for i2, a2 in enumerate(ax):
            x = 2.0 * (a1 - a2)
            for i3, b1 in enumerate(ax):
                q1, q3 = q[i1][i3], q[i2][i3]
                for i4, b2 in enumerate(ax):
                    q2, q4 = q[i1][i4], q[i2][i4]
                    e = q1 + q2 + q3 - q4
                    if name == "eight_variable_sum":
                        values.append(e)
                    elif name == "constrained_e4":
                        den = 1.0 + q1 * q2 * q3 * q4
                        num = e + (q2 * q3 * q4 + q1 * q3 * q4 + q1 * q2 * q4 - q1 * q2 * q3)
                        values.append(num / den if den > 1e-12 else math.nan)
                    else:
                        y = 2.0 * (b1 - b2)
                        t0 = 2.0 * math.hypot(math.sin((x - y) / 2.0), math.cos((x + y) / 2.0))
                        values.append(t0 - abs(e))
    return values


def coordinate_descent(fn, start, step0: float, tol: float, maximize: bool):
    """Scalar coordinate descent with step halving: the reference refinement rule.

    ``fn`` maps a 4-tuple of angles to a float (NaN where undefined). Per
    sweep, coordinates 0..3 are tried at +step then -step and a strict
    improvement is accepted at once; NaN never improves; the step halves
    after a sweep without improvement; the search stops once the step drops
    below ``tol``. Returns (angles, value).
    """
    sense = 1.0 if maximize else -1.0
    x = list(start)
    best = fn(tuple(x))
    best_s = sense * best if not math.isnan(best) else -math.inf
    step = step0
    while step >= tol:
        improved = False
        for i in range(4):
            for delta in (step, -step):
                cand = x.copy()
                cand[i] += delta
                val = fn(tuple(cand))
                val_s = sense * val if not math.isnan(val) else -math.inf
                if val_s > best_s:
                    x, best, best_s = cand, val, val_s
                    improved = True
        if not improved:
            step /= 2.0
    return tuple(x), best


def signs(mask) -> np.ndarray:
    """+1 where ``mask`` is true and -1 elsewhere, as int8."""
    return np.where(mask, np.int8(1), np.int8(-1))


def cos_sign_response(angle, lam) -> np.ndarray:
    """The sign model's response rule, sign(cos 2(angle - lam)) with sign(0) := +1.

    The convention never applies: cos of a double argument is never exactly 0
    (see lhv._cos_rule), so ">=" and ">" give the same responses and no test
    can tell them apart.
    """
    return np.where(np.cos(2.0 * (np.asarray(angle) - lam)) >= 0.0, 1, -1)


def same_lambda_is_plus(a1, a2, b1, b2) -> np.ndarray:
    """Where (a1 + a2) b1 + (a1 - a2) b2 = +2, from A's response masks, with B = -A."""
    a1, a2, b1, b2 = signs(a1), signs(a2), -signs(b1), -signs(b2)
    return (a1 + a2) * b1 + (a1 - a2) * b2 == 2


def cut_parity(r0: bool, cuts, u) -> np.ndarray:
    """r0 XOR (an odd number of ``cuts`` <= u), counting the cuts one by one."""
    count = np.zeros(np.shape(u), dtype=int)
    for t in cuts:
        count += np.asarray(u) >= t
    return r0 ^ (count % 2 == 1)


def _dense_estimate(samples: np.ndarray) -> tuple[float, float]:
    # (mean, stderr = sample std / sqrt(n)) of one whole-run float array.
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(samples.size))


def _pairs(config):
    a1, a2, b1, b2 = config
    return ((a1, b1), (a1, b2), (a2, b1), (a2, b2))


def raw_halves(rng: np.random.Generator, n: int) -> np.ndarray:
    """The first n 32-bit halves of ``rng``'s raw 64-bit outputs, as uint64.

    Low half, then high half of each output, split by arithmetic; an odd n
    takes ceil(n / 2) outputs and drops the last high half.
    """
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    return np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1).ravel()[:n]


# Trials per block of the estimators' draw layout, written out here rather
# than read from chshlab.montecarlo.MC_CHUNK, so that a changed chunk shows.
DRAW_BLOCK = 2**15


def trials_by_rule(k: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) per-trial draws of a whole-run draw ``k`` of d n entries.

    The run is read in blocks of DRAW_BLOCK trials, rule-major within a block:
    in a block of b trials starting at trial s, rule j of trial t reads entry
    d s + j b + (t - s). The index is formed entry by entry from that formula.
    """
    n = len(k) // d
    t = np.arange(n)[:, None]
    s = t - t % DRAW_BLOCK
    b = np.minimum(DRAW_BLOCK, n - s)
    return np.asarray(k)[d * s + np.arange(d) * b + (t - s)]


def uniform_law(k, span: float = 1.0) -> np.ndarray:
    """The uniforms u = fl(k c) in [0, span), c = span 2^-32, that 32-bit halves k stand for.

    The Monte Carlo estimators compare k with integer thresholds and never
    form u; their cut rules must read on k exactly as on this float law.
    """
    return np.multiply(k, span * 2.0**-32)


def uniforms32(rng: np.random.Generator, n: int) -> np.ndarray:
    """The Monte Carlo estimators' n uniforms k 2^-32 in [0, 1), k from :func:`raw_halves`."""
    return uniform_law(raw_halves(rng, n))


def dense_sign_correlation(alpha: float, beta: float, n: int, rng: np.random.Generator):
    """Sign model, one whole-run draw of n lambdas pi * u: (mean, stderr) of A(alpha) B(beta)."""
    lam = math.pi * uniforms32(rng, n)
    return _dense_estimate((cos_sign_response(alpha, lam) * -cos_sign_response(beta, lam)).astype(float))


def dense_sign_same_lambda(config, n: int, rng: np.random.Generator):
    """Sign model, same-lambda protocol: (mean, stderr) of (a1 + a2) b1 + (a1 - a2) b2."""
    a1, a2, b1, b2 = config
    lam = math.pi * uniforms32(rng, n)
    ra1, ra2 = cos_sign_response(a1, lam), cos_sign_response(a2, lam)
    rb1, rb2 = -cos_sign_response(b1, lam), -cos_sign_response(b2, lam)
    return _dense_estimate(((ra1 + ra2) * rb1 + (ra1 - ra2) * rb2).astype(float))


def dense_sign_independent(config, n: int, rng: np.random.Generator):
    """Sign model, independent pairs: one whole-run draw of 4n lambdas, pair j on column j of :func:`trials_by_rule`."""
    lam = math.pi * trials_by_rule(uniforms32(rng, 4 * n), 4)
    p = [cos_sign_response(a, lam[:, j]) * -cos_sign_response(b, lam[:, j]) for j, (a, b) in enumerate(_pairs(config))]
    return _dense_estimate((p[0] + p[1] + p[2] - p[3]).astype(float))


def singlet_cumulative(alpha: float, beta: float) -> np.ndarray:
    """Cumulative probabilities of the outcomes (1, 1), (1, -1), (-1, 1), (-1, -1)."""
    c = math.cos(2.0 * (alpha - beta))
    return np.cumsum([(1.0 - c) / 4.0, (1.0 + c) / 4.0, (1.0 + c) / 4.0, (1.0 - c) / 4.0])


def inverse_cdf_pairs(cumulative, u: np.ndarray):
    """Outcomes (x, y) drawn by inverse CDF over (1, 1), (1, -1), (-1, 1), (-1, -1), one uniform each.

    A draw takes the outcome whose index counts the cumulative entries <= u,
    capped at the last outcome.
    """
    table = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    idx = np.minimum(np.searchsorted(cumulative, u, side="right"), 3)
    return table[idx, 0], table[idx, 1]


def dense_singlet_pairs(alpha: float, beta: float, n: int, rng: np.random.Generator):
    """(x, y) of n singlet pairs by inverse CDF on one whole-run draw of n uniforms."""
    return inverse_cdf_pairs(singlet_cumulative(alpha, beta), uniforms32(rng, n))


def dense_singlet_products(alpha: float, beta: float, u: np.ndarray) -> np.ndarray:
    """x*y of the singlet outcomes drawn by inverse CDF, one uniform each."""
    x, y = inverse_cdf_pairs(singlet_cumulative(alpha, beta), u)
    return x * y


def dense_pair_products(alpha: float, beta: float, n: int, rng: np.random.Generator):
    """(mean, stderr) of x*y over n singlet pairs from one whole-run draw."""
    return _dense_estimate(dense_singlet_products(alpha, beta, uniforms32(rng, n)).astype(float))


def dense_quantum_independent(config, n: int, rng: np.random.Generator):
    """Quantum independent pairs: one whole-run draw of 4n uniforms, pair j on column j of :func:`trials_by_rule`."""
    u = trials_by_rule(uniforms32(rng, 4 * n), 4)
    p = [dense_singlet_products(a, b, u[:, j]) for j, (a, b) in enumerate(_pairs(config))]
    return _dense_estimate((p[0] + p[1] + p[2] - p[3]).astype(float))


def dense_two_point(t0: float, weight_plus: float, n: int, rng: np.random.Generator):
    """Outcomes +-t0 (u < weight_plus gives +t0) from one whole-run draw.

    Returns (mean, stderr) as t0 times those of the signs, and the float
    outcome array itself.
    """
    signs = np.where(uniforms32(rng, n) < weight_plus, 1.0, -1.0)
    mean, stderr = _dense_estimate(signs)
    return t0 * mean, t0 * stderr, t0 * signs
