"""The array kernels give the same bits along every route that calls them."""

import math

import numpy as np

from chshlab import kernels

from oracles import e4_expression

N = 100_000


def _angle_configs(rng: np.random.Generator) -> np.ndarray:
    """(4, N) angles: the lattice range, the angle limit, and multiples of pi/8."""
    return np.concatenate(
        [
            rng.uniform(0.0, math.pi, (4, 4 * N // 10)),
            rng.uniform(-1e6, 1e6, (4, 4 * N // 10)),
            rng.integers(-80, 80, (4, 2 * N // 10)) * (math.pi / 8),
        ],
        axis=1,
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestQQuad:
    def test_block_equals_pair_by_pair(self):
        angles = _angle_configs(np.random.default_rng(14))
        block = kernels.q_quad(*angles)  # one shape: the one-broadcast block
        for q, (i, j) in zip(block, kernels.PAIRS):
            assert _bits(q) == _bits(kernels.pair_correlation(angles[i], angles[j]))
        # a 2-D stack takes the block too and keeps its shape
        stacked = kernels.q_quad(*angles.reshape(4, 1000, -1))
        assert [q.shape for q in stacked] == [(1000, N // 1000)] * 4
        assert _bits(np.array(stacked).reshape(4, -1)) == _bits(block)

    def test_scalar_calls_equal_the_block(self):
        angles = _angle_configs(np.random.default_rng(15))
        block = np.array(kernels.q_quad(*angles))
        for k in np.random.default_rng(16).choice(N, 2000, replace=False):
            scalar = kernels.q_quad(*(float(a) for a in angles[:, k]))
            assert _bits(scalar) == _bits(block[:, k])

    def test_slab_broadcast_equals_the_block(self):
        # The scan slab broadcasts (res, 1, 1), 0.0, (1, res, 1), (1, 1, res)
        # pair by pair; the descent evaluates the same points as one block.
        ax = (np.arange(24) / 24) * math.pi
        slab = kernels.q_quad(ax[:, None, None], 0.0, ax[None, :, None], ax[None, None, :])
        a1, b1, b2 = (g.ravel() for g in np.meshgrid(ax, ax, ax, indexing="ij"))
        block = kernels.q_quad(a1, np.zeros_like(a1), b1, b2)
        for s, q in zip(slab, block):
            assert _bits(np.broadcast_to(s, (24, 24, 24)).ravel()) == _bits(q)


class TestE4:
    def _quads(self) -> np.ndarray:
        rng = np.random.default_rng(17)
        n = N // 5
        uniform = rng.uniform(-1.0, 1.0, (4, 2 * n))
        from_angles = np.array(kernels.q_quad(*rng.uniform(0.0, math.pi, (4, n))))
        # q1 = q2 = q3 = 1 and q4 = -1 + d put the mass 1 + q1 q2 q3 q4 at
        # about d, on both sides of DEGENERACY_THRESHOLD and at exactly zero
        d = np.concatenate([[0.0, 1e-12, -1e-12], 10.0 ** rng.uniform(-17.0, -8.0, n - 3)])
        degenerate = np.stack([np.ones(n), np.ones(n), np.ones(n), d - 1.0])
        with_nan = rng.uniform(-1.0, 1.0, (4, n))
        with_nan[rng.integers(0, 4, n), np.arange(n)] = np.nan
        return np.concatenate([uniform, from_angles, degenerate, with_nan], axis=1)

    def test_equals_the_written_out_expression(self):
        quads = self._quads()
        expected = e4_expression(*quads, kernels.DEGENERACY_THRESHOLD)
        assert np.isnan(expected).sum() > N // 10  # the degenerate and NaN quads are in
        assert _bits(kernels.e4(*quads)) == _bits(expected)

    def test_all_valid_arrays_and_scalars(self):
        quads = self._quads()
        expected = e4_expression(*quads, kernels.DEGENERACY_THRESHOLD)
        valid = ~np.isnan(expected)
        assert _bits(kernels.e4(*quads[:, valid])) == _bits(expected[valid])
        for k in np.random.default_rng(18).choice(quads.shape[1], 2000, replace=False):
            q = [float(v) for v in quads[:, k]]
            assert _bits(kernels.e4(*q)) == _bits(e4_expression(*q, kernels.DEGENERACY_THRESHOLD))
