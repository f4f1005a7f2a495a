import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshlab.linalg import (
    EigenConvergenceError,
    NonHermitianError,
    hermitian_eigen,
    is_hermitian,
    tensor_product,
)
from chshlab.quantum import analyzer_operator, commutator

from oracles import charpoly_eigenvalues

SQRT8 = 2.0 * math.sqrt(2.0)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_hermitian(rng, n):
    x = random_complex(rng, n)
    return (x + x.conj().T) / 2.0


class TestComplexCarrier:
    """The scalar carrier (builtin complex / complex128) behaves like a field
    to floating-point accuracy; these identities document that assumption."""

    @given(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    def test_ring_identities(self, a, b, c):
        assert abs((a + b) + c - (a + (b + c))) <= 1e-14 * (1 + abs(a) + abs(b) + abs(c))
        assert abs(a * (b + c) - (a * b + a * c)) <= 1e-12 * (1 + abs(a)) * (1 + abs(b) + abs(c))
        assert a + 0 == a and a * 1 == a

    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                              allow_nan=False, allow_infinity=False))
    def test_multiplicative_inverse(self, a):
        assert abs(a * (1 / a) - 1) <= 1e-14


class TestMatMul:
    """Matrix-product identities of the package's operators (numpy ``@``)."""

    def test_identity(self):
        # Mixed-product identity (A x B)(C x D) = AC x BD.
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d = (random_complex(rng, 2) for _ in range(4))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.abs(rhs).max())

    def test_involution(self):
        # The joint observable F(a) x F(b) squares to the 4x4 identity.
        rng = np.random.default_rng(12)
        for alpha, beta in rng.uniform(-4.0, 4.0, size=(25, 2)):
            m = tensor_product(analyzer_operator(alpha), analyzer_operator(beta))
            assert np.max(np.abs(m @ m - np.eye(4))) <= 1e-14

    def test_product_adjoint_identity(self):
        # (A x B)^dagger = A^dagger x B^dagger
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            lhs = tensor_product(a, b).conj().T
            rhs = tensor_product(a.conj().T, b.conj().T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.abs(lhs).max())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(np.eye(2), np.eye(4))

    def test_rejects_non_square(self):
        for fn in (hermitian_eigen, is_hermitian):
            with pytest.raises(ValueError, match="square"):
                fn(np.ones((2, 3)))


class TestAdjoint:
    """Conjugate-transpose contracts, read through :func:`is_hermitian`."""

    def test_real_symmetric_fixed_point(self):
        m = tensor_product(analyzer_operator(0.3), analyzer_operator(-1.1))
        assert np.array_equal(m.imag, np.zeros((4, 4)))
        assert np.array_equal(m, m.T)
        assert is_hermitian(m, 0.0)

    def test_single_entry_conjugation(self):
        assert is_hermitian(np.array([[0, 1j], [-1j, 0]]), 0.0)
        assert not is_hermitian(np.array([[0, 1j], [0, 0]]), 0.5)
        # The commutator of two analyzer operators is anti-Hermitian.
        rng = np.random.default_rng(4)
        for theta, theta_prime in rng.uniform(-4.0, 4.0, size=(20, 2)):
            c = commutator(theta, theta_prime)
            assert np.array_equal(c.conj().T, -c)
            assert is_hermitian(1j * c, 0.0)

    def test_involution(self):
        # (a + a^dagger)^dagger = a^dagger + a exactly, so the symmetrised
        # input hermitian_eigen decomposes is Hermitian at tolerance 0.
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex(rng, 4)
            assert is_hermitian(a + a.conj().T, 0.0)


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4, dtype=complex))

    def test_diagonal(self):
        z = np.diag([1.0, -1.0])
        assert np.array_equal(tensor_product(z, z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_first_factor_slow(self):
        # Basis order |xx>, |xy>, |yx>, |yy>: the first factor selects blocks.
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(np.diag(tensor_product(a, b)).real, [3.0, 4.0, 6.0, 8.0])

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            lhs = np.trace(tensor_product(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_bilinear(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, a2, b = (random_complex(rng, 2) for _ in range(3))
            lhs = tensor_product(a + a2, b)
            rhs = tensor_product(a, b) + tensor_product(a2, b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            tensor_product(np.eye(4), np.eye(2))


class TestIsHermitian:
    def test_identity(self):
        assert is_hermitian(np.eye(4), 0.0)

    def test_anti_hermitian_off_diagonal(self):
        assert not is_hermitian(np.array([[0, 1j], [1j, 0]]), 1e-12)

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_analyzer_operators_hermitian(self, theta):
        from chshlab.quantum import analyzer_operator

        assert is_hermitian(analyzer_operator(theta), 1e-14)


class TestHermitianEigen:
    def test_diagonal(self):
        dec = hermitian_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=0)

    def test_pauli_x(self):
        dec = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_chsh_operator_at_max_violation(self):
        from chshlab.chsh_operator import build_t
        from chshlab.lhv import tsirelson_angles

        op = build_t(tsirelson_angles())
        dec = hermitian_eigen(op.matrix)
        roots = charpoly_eigenvalues(op.matrix)
        assert np.max(np.abs(dec.eigenvalues - np.array(roots))) <= 1e-9
        assert abs(dec.eigenvalues[0] + SQRT8) <= 1e-12
        assert abs(dec.eigenvalues[3] - SQRT8) <= 1e-12
        # companion pair +-t1 is numerically zero at this configuration
        assert np.max(np.abs(dec.eigenvalues[1:3])) <= 1e-12

    def test_random_hermitian_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = random_hermitian(rng, 4)
            dec = hermitian_eigen(h)
            for k in range(4):
                v = dec.eigenvectors[:, k]
                assert np.linalg.norm(h @ v - dec.eigenvalues[k] * v) <= 1e-10

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = 4 if rng.random() < 0.7 else 2
            h = random_hermitian(rng, n)
            dec = hermitian_eigen(h)
            roots = charpoly_eigenvalues(h)
            assert np.max(np.abs(dec.eigenvalues - np.array(roots))) <= 1e-9

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            dec = hermitian_eigen(h)
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10
            assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - h)) <= 1e-10

    def test_degenerate_cluster_projector(self):
        # I4 is maximally degenerate: only the projector is well defined.
        dec = hermitian_eigen(np.eye(4))
        assert np.allclose(dec.eigenvalues, 1.0, atol=0)
        assert np.max(np.abs(dec.projector(range(4)) - np.eye(4))) <= 1e-12
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.eye(5))

    def test_ascending_order(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            dec = hermitian_eigen(random_hermitian(rng, 4))
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_returns_read_only_arrays(self):
        dec = hermitian_eigen(random_hermitian(np.random.default_rng(12), 4))
        for arr in (dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            hermitian_eigen(np.eye(4))
